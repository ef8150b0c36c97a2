/**
 * @file
 * Unified Doppelgänger with B∆I-compressed data entries (SNIPPETS.md
 * snippet 3, Thesaurus `uniDoppelgangerBDICache`): approximate
 * inter-block sharing and lossless intra-block compression in one
 * data array. The engine still stores full 64 B entries (the
 * simulator serves data losslessly from whatever entry a tag maps
 * to); the B∆I layer is an *accounting* overlay that measures the
 * compressed footprint of every data-array install, which is what
 * the provisioning argument needs: because each stored entry costs
 * only its compressed size, the data array can carry about twice the
 * entries of the uncompressed uniDoppelgänger in the same silicon —
 * the builder provisions `uniDoppBdiExpansion ×` entries for exactly
 * that reason, and the per-fill counters registered here
 * (`bdi.compressions`, `bdi.compressedBytes`, the fill-size
 * distribution and the `compressionRatio` formula) report whether
 * the workload's data actually sustains the assumed factor — the
 * Touché-style metadata-vs-data overhead accounting of DESIGN.md §17.
 */

#ifndef DOPP_COMPRESS_UNI_DOPP_BDI_HH
#define DOPP_COMPRESS_UNI_DOPP_BDI_HH

#include <memory>
#include <string>

#include "core/dopp_engine.hh"
#include "sim/llc.hh"

namespace dopp
{

/**
 * Data-entry provisioning factor: B∆I at the paper's ~2× average
 * compression lets the same data-array silicon hold twice the
 * entries. The builder multiplies the configured dataFraction by
 * this (capped at one entry per tag).
 */
constexpr u32 uniDoppBdiExpansion = 2;

/** Unified Doppelgänger whose data array is provisioned and accounted
 * as B∆I-compressed. */
class UniDoppBdiLlc : public LastLevelCache
{
  public:
    /** @p config must have `unified` set; the extra decompression
     * cycle is the builder's to add to `hitLatency`. */
    UniDoppBdiLlc(MainMemory &memory, const DoppConfig &config,
                  const ApproxRegistry *registry,
                  StatRegistry *stat_registry = nullptr,
                  const std::string &stat_group = "llc",
                  DoppEngineMaker make_engine = makeDoppEngine);

    FetchResult fetch(Addr addr, u8 *data) override;
    void writeback(Addr addr, const u8 *data) override;
    bool contains(Addr addr) const override;
    void forEachBlock(
        const std::function<void(const LlcBlockInfo &)> &visit)
        const override;
    void flush() override;
    const char *name() const override { return "uniDoppBdi"; }

    void setBackInvalidate(BackInvalidateFn fn) override;
    void setFaultInjector(FaultInjector *fi) override;
    void setGuardrail(QorGuardrail *g) override;
    void
    setHotPathProfile(HotPathProfile *p) override
    {
        engine->setHotPathProfile(p);
    }
    const LlcStats &stats() const override { return engine->stats(); }
    void resetStats() override { engine->resetStats(); }

    /** Underlying engine, for occupancy introspection. */
    const DoppEngine &inner() const { return *engine; }

    /** @name B∆I accounting */
    /// @{
    /** Blocks compressed so far (every fetch miss and writeback). */
    u64 compressions() const { return nCompressions; }

    /** Their cumulative compressed size in bytes. */
    u64 compressedBytes() const { return nCompressedBytes; }

    /** Average install compression ratio (≥ 1; 1.0 before any). */
    double compressionRatio() const;
    /// @}

    bool
    checkInvariants(std::string *why = nullptr) const
    {
        return engine->checkInvariants(why);
    }

    bool selfCheckAndRepair() { return engine->selfCheckAndRepair(); }

  private:
    /** Account one installed block's compressed size. */
    void account(const u8 *data);

    std::unique_ptr<DoppEngine> engine;
    u64 nCompressions = 0;
    u64 nCompressedBytes = 0;
    Distribution *fillSize = nullptr;
};

} // namespace dopp

#endif // DOPP_COMPRESS_UNI_DOPP_BDI_HH
