/**
 * @file
 * Approximate (threshold-match) deduplicating LLC, the lossy
 * counterpart of the exact-hash DedupLlc: blocks whose elements agree
 * within a quantization tolerance share one data entry, trading a
 * bounded per-element error for a far larger sharing pool — the
 * approx-dedup vs. approx-compression contrast of the survey
 * literature, measured against Doppelgänger's map-based sharing in
 * Fig 8.
 *
 * Implementation: the same decoupled tag/data engine as DedupLlc, but
 * the map override is a *quantized-element signature* — every element
 * is snapped to a uniform grid over its region's declared range and
 * the grid cells are hashed (approxDedupSignature, shared with the
 * snapshot analysis in analysis/similarity.cc). Two blocks collide
 * exactly when all elements fall into the same cells, i.e. pairwise
 * differ by less than one grid step — the threshold-match rule of
 * Fig 2 expressed as a pure function of the block, so it rides the
 * engine's sharing, eviction, fault-injection and repair machinery
 * unchanged. The grid uses ⌈mapBits/2⌉ bits per element: the default
 * 14-bit map space gives 128 cells, ≈0.8 % of range — inside the
 * similarity thresholds the paper studies.
 */

#ifndef DOPP_COMPRESS_APPROX_DEDUP_HH
#define DOPP_COMPRESS_APPROX_DEDUP_HH

#include <memory>
#include <string>

#include "core/dopp_engine.hh"
#include "sim/llc.hh"

namespace dopp
{

/** Grid cells per element for @p map_bits (2^⌈mapBits/2⌉). */
u64 approxDedupCells(unsigned map_bits);

/**
 * Quantized-element signature of @p block under @p params: FNV-1a
 * over every element's grid cell. Signature equality ⇔ all elements
 * within one grid step (MapOverrideFn-compatible, capture-less).
 */
u64 approxDedupSignature(const u8 *block, const MapParams &params);

/** Configuration of the approximate-dedup LLC. */
struct ApproxDedupConfig
{
    u32 tagEntries = 32 * 1024;
    u32 tagWays = 16;
    u32 dataEntries = 16 * 1024;
    u32 dataWays = 16;
    unsigned mapBits = 14; ///< 2^⌈mapBits/2⌉ grid cells per element
    Tick hitLatency = 6;
};

/**
 * Threshold-match deduplicating LLC: a DoppelgangerCache whose map
 * function is the quantized-element signature, so near-identical
 * blocks share a data entry.
 */
class ApproxDedupLlc : public LastLevelCache
{
  public:
    ApproxDedupLlc(MainMemory &memory, const ApproxDedupConfig &config,
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
    const char *name() const override { return "approxDedup"; }

    void setBackInvalidate(BackInvalidateFn fn) override;

    /** Forwarded to the engine — the injector drives the engine's
     * tag/MTag/data fault draws and its self-repair. */
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

    /** Structural invariants of the shared tag/data metadata (see
     * DoppEngine::checkInvariants). */
    bool
    checkInvariants(std::string *why = nullptr) const
    {
        return engine->checkInvariants(why);
    }

    /** Detect-and-repair pass over injected metadata faults. */
    bool selfCheckAndRepair() { return engine->selfCheckAndRepair(); }

  private:
    std::unique_ptr<DoppEngine> engine;
};

} // namespace dopp

#endif // DOPP_COMPRESS_APPROX_DEDUP_HH
