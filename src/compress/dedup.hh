/**
 * @file
 * Exact last-level-cache deduplication [Tian et al., ICS 2014], the
 * inter-block lossless baseline of Fig 8.
 *
 * Reuses the decoupled tag/data engine of DoppelgangerCache, but maps
 * blocks by a 64-bit content hash instead of the approximate-similarity
 * map: only byte-identical blocks share a data entry (up to the ~2^-64
 * chance of a hash collision, which would merely introduce the same
 * kind of aliasing Doppelgänger embraces by design).
 */

#ifndef DOPP_COMPRESS_DEDUP_HH
#define DOPP_COMPRESS_DEDUP_HH

#include <memory>

#include "core/dopp_engine.hh"
#include "sim/llc.hh"
#include "util/hash.hh"

namespace dopp
{

/** Configuration of the dedup LLC. */
struct DedupConfig
{
    u32 tagEntries = 32 * 1024; ///< 2 MB tag-equivalent
    u32 tagWays = 16;
    u32 dataEntries = 16 * 1024;
    u32 dataWays = 16;
    Tick hitLatency = 6;
};

/**
 * Deduplicating LLC: a DoppelgangerCache whose map function is a
 * content hash, so sharing happens only between identical blocks.
 */
class DedupLlc : public LastLevelCache
{
  public:
    DedupLlc(MainMemory &memory, const DedupConfig &config,
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
    const char *name() const override { return "dedup"; }

    void setBackInvalidate(BackInvalidateFn fn) override;

    /**
     * Forwarded to the engine: the wrapper used to swallow these (the
     * base-class default only set the wrapper's own pointer), so a
     * fault campaign against the dedup organization silently injected
     * nothing — the engine's tag/MTag draws and its
     * self-check-and-repair never ran. Pinned by
     * DedupLlc.FaultInjectorReachesEngine.
     */
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

    /**
     * Dedup-table invariants: the engine's structural pass (every
     * tag's map resolves to a live data entry — the refcount
     * underflow / orphaned-entry detector) plus the hash-table
     * consistency property specific to this organization — the map
     * stored for every resident block equals the content hash of the
     * bytes the cache serves for it. The hash pass only holds while
     * data is pristine, so it is skipped when @p check_hashes is
     * false (e.g. under data-fault injection, which flips stored
     * bytes on purpose).
     */
    bool checkInvariants(std::string *why = nullptr,
                         bool check_hashes = true) const;

    /** Detect-and-repair pass over injected metadata faults (see
     * DoppEngine::selfCheckAndRepair). */
    bool selfCheckAndRepair() { return engine->selfCheckAndRepair(); }

  private:
    std::unique_ptr<DoppEngine> engine;
};

} // namespace dopp

#endif // DOPP_COMPRESS_DEDUP_HH
