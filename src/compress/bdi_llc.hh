/**
 * @file
 * A B∆I-compressed last-level cache [Pekhimenko et al., PACT 2012],
 * rounding out the baselines: where Doppelgänger shrinks *inter-block*
 * storage lossily, B∆I shrinks *intra-block* storage losslessly. The
 * paper argues the two are orthogonal (Sec 5.1); this organization
 * makes the compression side runnable on the same hierarchy.
 *
 * Model: a byte-budget compressed-set LLC (compress/compressed_set.hh)
 * whose blocks occupy their B∆I-compressed size. Data is served
 * losslessly.
 */

#ifndef DOPP_COMPRESS_BDI_LLC_HH
#define DOPP_COMPRESS_BDI_LLC_HH

#include "compress/bdi.hh"
#include "compress/compressed_set.hh"

namespace dopp
{

/** Configuration of the compressed LLC (+1 decompression cycle on
 * hits by default). */
using BdiLlcConfig = CompressedSetConfig;

/** Conventional-geometry LLC storing B∆I-compressed blocks. */
class BdiLlc : public CompressedSetLlc
{
  public:
    BdiLlc(MainMemory &memory, const BdiLlcConfig &config,
           const ApproxRegistry *registry,
           StatRegistry *stat_registry = nullptr,
           const std::string &stat_group = "llc")
        : CompressedSetLlc(memory, config, "bdi", registry, stat_registry,
                           stat_group)
    {
    }

    const char *name() const override { return "bdi"; }

  private:
    unsigned
    reserve(const u8 *block) override
    {
        return bdiCompressedSize(block);
    }

    unsigned admit(Slot, unsigned room) override { return room; }
};

} // namespace dopp

#endif // DOPP_COMPRESS_BDI_LLC_HH
