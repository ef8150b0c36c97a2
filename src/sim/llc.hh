/**
 * @file
 * Last-level-cache interface shared by all LLC organizations.
 *
 * The memory hierarchy (hierarchy.hh) is LLC-agnostic: the baseline
 * conventional cache, the split precise+Doppelgänger LLC, the
 * Doppelgänger engine (which is also the unified uniDoppelgänger and,
 * with a content map, the dedup and approxDedup baselines) and the
 * compressed B∆I and G-DISH caches all implement this interface. The LLC owns its interaction with main memory (demand
 * fills, writebacks) and reports per-structure access counts that the
 * energy model converts to Joules.
 */

#ifndef DOPP_SIM_LLC_HH
#define DOPP_SIM_LLC_HH

#include <functional>
#include <string>
#include <vector>

#include <memory>

#include "fault/fault_injector.hh"
#include "fault/qor_guardrail.hh"
#include "sim/approx.hh"
#include "sim/memory.hh"
#include "sim/set_assoc.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace dopp
{

/** Read/write access counters for one SRAM structure. */
struct ArrayCounters
{
    u64 reads = 0;
    u64 writes = 0;

    u64 total() const { return reads + writes; }
};

/** Statistics exported by every LLC organization. */
struct LlcStats
{
    u64 fetches = 0;        ///< demand fetches from private L2 misses
    u64 fetchHits = 0;      ///< fetches that hit a (tag) entry
    u64 fetchMisses = 0;    ///< fetches that went to memory
    u64 writebacksIn = 0;   ///< dirty writebacks arriving from L2s

    u64 evictions = 0;          ///< tag entries evicted
    u64 dataEvictions = 0;      ///< data entries evicted (decoupled LLCs)
    u64 dirtyWritebacks = 0;    ///< blocks written back to memory
    u64 backInvalidations = 0;  ///< inclusive invalidations sent upward

    ArrayCounters tagArray;   ///< address tag array accesses
    ArrayCounters mtagArray;  ///< MTag array accesses (decoupled LLCs)
    ArrayCounters dataArray;  ///< data array accesses

    u64 mapGens = 0;          ///< map generations (168 pJ each, Sec 5.6)

    /// Sum/count of tags linked to a data entry at data-evict time,
    /// for the paper's "4.4 tags per data entry" statistic.
    u64 linkedTagsSum = 0;
    u64 linkedTagsSamples = 0;

    /** @name Fault-injection / QoR-guardrail counters (src/fault) */
    /// @{
    u64 faultsInjected = 0;   ///< bit flips applied to this LLC's arrays
    u64 faultsDetected = 0;   ///< metadata corruptions the self-check caught
    u64 faultsRepaired = 0;   ///< repair passes that restored invariants
    u64 repairTagsDropped = 0;    ///< tags invalidated to restore invariants
    u64 repairEntriesDropped = 0; ///< data entries orphaned and invalidated
    u64 degradedFills = 0;    ///< approx fills routed precise by the guardrail
    /// @}

    double
    avgLinkedTags() const
    {
        return linkedTagsSamples
            ? static_cast<double>(linkedTagsSum) /
                  static_cast<double>(linkedTagsSamples)
            : 0.0;
    }

    double
    missRate() const
    {
        return fetches ? static_cast<double>(fetchMisses) /
            static_cast<double>(fetches) : 0.0;
    }
};

/**
 * Name + accessors for one LlcStats counter. The canonical field list
 * (llcStatFields) is the single place that enumerates the struct, so
 * field-wise aggregation (split-LLC stats summing) and the registry
 * compatibility view can never silently miss a counter: a
 * static_assert in llc.cc ties the list length to sizeof(LlcStats).
 * Field names use the registry's dotted convention ("tagArray.reads"),
 * so a view registered under group "llc" exports as
 * "llc.tagArray.reads".
 */
struct LlcStatField
{
    const char *name;
    u64 (*get)(const LlcStats &); ///< const read of the field
    u64 &(*ref)(LlcStats &);      ///< mutable field reference

    u64 value(const LlcStats &s) const { return get(s); }
};

/** Every u64 counter of LlcStats, in declaration order. */
const std::vector<LlcStatField> &llcStatFields();

/** Read/write access counter handles for one SRAM structure. */
struct ArrayCounterRefs
{
    explicit ArrayCounterRefs(StatGroup g);

    Counter &reads;
    Counter &writes;
};

/**
 * Registry-backed counter handles mirroring LlcStats field-for-field:
 * one Counter per u64 in the struct, registered under one stat group
 * at construction. LLC hot paths bump these handles; LlcStats itself
 * is reduced to the *compatibility view* view() produces for
 * LastLevelCache::stats() and the derived "llc.*" formulas; above the
 * LLC interface every reader uses the registry snapshot.
 * A unit test pins the registered names against llcStatFields(), so
 * the view and the registry schema cannot drift apart.
 */
struct LlcCounters
{
    explicit LlcCounters(StatGroup g);

    Counter &fetches;
    Counter &fetchHits;
    Counter &fetchMisses;
    Counter &writebacksIn;

    Counter &evictions;
    Counter &dataEvictions;
    Counter &dirtyWritebacks;
    Counter &backInvalidations;

    ArrayCounterRefs tagArray;
    ArrayCounterRefs mtagArray;
    ArrayCounterRefs dataArray;

    Counter &mapGens;

    Counter &linkedTagsSum;
    Counter &linkedTagsSamples;

    Counter &faultsInjected;
    Counter &faultsDetected;
    Counter &faultsRepaired;
    Counter &repairTagsDropped;
    Counter &repairEntriesDropped;
    Counter &degradedFills;

    /** Compatibility view: LlcStats snapshot of the counters. */
    LlcStats view() const;

    /** Zero every counter. */
    void reset();
};

/**
 * Register a derived LlcStats-shaped family under @p group: one
 * integral stat per llcStatFields() entry plus the missRate and
 * avgLinkedTags formulas, all computed from @p view at snapshot time.
 * Used for aggregate "llc.*" stats of organizations whose own
 * counters live in subgroups (split halves, uniDoppelgänger).
 */
void registerLlcStatsView(StatGroup group,
                          std::function<LlcStats()> view);

/** Register only the derived formulas (missRate, avgLinkedTags) of
 * @p view under @p group — for organizations whose counters already
 * live directly under @p group. */
void registerLlcFormulas(StatGroup group,
                         std::function<LlcStats()> view);

/**
 * Per-phase wall-clock breakdown of the LLC access path, accumulated
 * by organizations that support setHotPathProfile(). All figures are
 * nanoseconds of *simulator* time — they attribute where the model
 * itself spends its cycles (bench_perf's per-phase columns), not
 * modeled hardware latency. Instrumentation is only active while a
 * profile is attached; throughput runs detach it so the timing calls
 * cost one predicted-not-taken branch.
 */
struct HotPathProfile
{
    u64 tagProbeNs = 0;  ///< address-tag set probes
    u64 mtagProbeNs = 0; ///< MTag (map-indexed) set probes
    u64 listMaintNs = 0; ///< tag-list link/unlink, allocation, evicts
    u64 dataArrayNs = 0; ///< 64 B block copies
};

/** Monotonic nanosecond timestamp for HotPathProfile spans. */
u64 hotpathNowNs();

/** Snapshot of one logical block resident in the LLC. */
struct LlcBlockInfo
{
    Addr addr = 0;            ///< block address
    const u8 *data = nullptr; ///< the 64 B the LLC would serve
    bool dirty = false;       ///< per-tag dirty bit
    bool approx = false;      ///< address lies in an annotated region
    ElemType type = ElemType::F32; ///< element type if approximate
};

/**
 * Callback into the hierarchy used for inclusive back-invalidation:
 * invalidate all private copies of @p addr; if some private copy was
 * dirty, copy its 64 bytes into @p data and return true.
 */
using BackInvalidateFn = std::function<bool(Addr addr, u8 *data)>;

/** Abstract LLC. All addresses are block-aligned by callers. */
class LastLevelCache
{
  public:
    /** Outcome of a demand fetch. */
    struct FetchResult
    {
        bool hit = false;  ///< tag hit (no memory access needed)
        Tick latency = 0;  ///< cycles beyond the L2 (probe + memory)
    };

    /**
     * @param memory backing store
     * @param stat_registry per-run registry this LLC registers its
     *        counters into; nullptr makes the LLC own a private one
     *        (standalone/unit-test construction)
     * @param stat_group dotted group path for this LLC's counters
     */
    LastLevelCache(MainMemory &memory, StatRegistry *stat_registry,
                   std::string stat_group)
        : mem(memory),
          ownedStats(stat_registry ? nullptr
                                   : std::make_unique<StatRegistry>()),
          statsReg(stat_registry ? stat_registry : ownedStats.get()),
          statPath(std::move(stat_group))
    {
    }

    virtual ~LastLevelCache() = default;

    LastLevelCache(const LastLevelCache &) = delete;
    LastLevelCache &operator=(const LastLevelCache &) = delete;

    /**
     * Demand fetch of the block at @p addr (an L2 miss). Always
     * produces 64 bytes in @p data, going to memory on a miss.
     */
    virtual FetchResult fetch(Addr addr, u8 *data) = 0;

    /** Dirty writeback of @p data for block @p addr from a private L2. */
    virtual void writeback(Addr addr, const u8 *data) = 0;

    /** @return whether @p addr currently has a tag in the LLC. */
    virtual bool contains(Addr addr) const = 0;

    /** Visit every resident logical block (one visit per tag). */
    virtual void
    forEachBlock(const std::function<void(const LlcBlockInfo &)> &visit)
        const = 0;

    /** Write all dirty blocks to memory and invalidate everything. */
    virtual void flush() = 0;

    /** Organization name for reports. */
    virtual const char *name() const = 0;

    /** Register the hierarchy's inclusive back-invalidation hook. */
    virtual void
    setBackInvalidate(BackInvalidateFn fn)
    {
        backInvalidate = std::move(fn);
    }

    /**
     * Attach a fault injector: the LLC will consult it once per
     * operation and apply any bit flips it decides on to its own
     * arrays (approximate structures only; see DESIGN.md fault model).
     * nullptr (the default) disables injection. Not owned.
     */
    virtual void setFaultInjector(FaultInjector *fi) { faults = fi; }

    /**
     * Attach a QoR guardrail: the LLC reports substitution-error
     * events to it and honors degraded() for approximate fills.
     * nullptr (the default) disables the guardrail. Not owned.
     */
    virtual void setGuardrail(QorGuardrail *g) { guardrail = g; }

    /**
     * Attach a per-phase timing sink (see HotPathProfile). Default:
     * ignored — organizations without phase instrumentation simply
     * leave the profile untouched. nullptr detaches. Not owned.
     */
    virtual void setHotPathProfile(HotPathProfile *) {}

    /**
     * Accumulated statistics, as the LlcStats compatibility view of
     * this organization's registry counters. The reference stays
     * valid for the cache's lifetime and is refreshed on every call.
     */
    virtual const LlcStats &
    stats() const
    {
        if (ctr)
            statsView = ctr->view();
        return statsView;
    }

    /** Zero the statistics (cache contents untouched). */
    virtual void
    resetStats()
    {
        if (ctr)
            ctr->reset();
    }

    /** Registry this LLC's counters are registered in (the per-run
     * registry, or the private one of standalone construction). */
    StatRegistry &statRegistry() const { return *statsReg; }

    /** Dotted group path this LLC's counters live under. */
    const std::string &statGroupPath() const { return statPath; }

  protected:
    /**
     * Run the inclusive back-invalidation hook for @p addr.
     * @return true iff a private copy was dirty; @p data then holds it.
     */
    bool
    invalidateUpward(Addr addr, u8 *data)
    {
        ++ctr->backInvalidations;
        return backInvalidate ? backInvalidate(addr, data) : false;
    }

    /**
     * Create this organization's LlcCounters under the stat group.
     * Concrete organizations that count events call this exactly once
     * in their constructor; pure containers (split, uniDoppBdi,
     * sliced) skip it and override stats()/resetStats() instead.
     */
    void
    initLlcCounters()
    {
        ctr = std::make_unique<LlcCounters>(statsReg->group(statPath));
    }

    /** Group handle under this LLC's stat path. */
    StatGroup statGroup() const { return statsReg->group(statPath); }

    MainMemory &mem;
    std::unique_ptr<LlcCounters> ctr; ///< set by initLlcCounters()
    FaultInjector *faults = nullptr;
    QorGuardrail *guardrail = nullptr;
    mutable LlcStats statsView; ///< storage behind stats()

  private:
    std::unique_ptr<StatRegistry> ownedStats;
    StatRegistry *statsReg;
    std::string statPath;
    BackInvalidateFn backInvalidate;
};

/**
 * Conventional set-associative writeback LLC: the paper's 2 MB, 16-way,
 * 6-cycle baseline (Table 1). Also instantiated at 1 MB as the precise
 * half of the split Doppelgänger organization.
 */
class ConventionalLlc : public LastLevelCache
{
  public:
    /**
     * @param memory backing store
     * @param size_bytes total data capacity
     * @param num_ways associativity
     * @param latency total hit latency in cycles
     * @param registry annotation registry (for snapshot labeling only);
     *                 may be nullptr
     * @param policy replacement policy
     * @param stat_registry per-run stat registry (nullptr: private)
     * @param stat_group group path for this cache's counters
     */
    ConventionalLlc(MainMemory &memory, u64 size_bytes, u32 num_ways,
                    Tick latency, const ApproxRegistry *registry,
                    ReplPolicy policy = ReplPolicy::LRU,
                    StatRegistry *stat_registry = nullptr,
                    const std::string &stat_group = "llc");

    FetchResult fetch(Addr addr, u8 *data) override;
    void writeback(Addr addr, const u8 *data) override;
    bool contains(Addr addr) const override;
    void forEachBlock(
        const std::function<void(const LlcBlockInfo &)> &visit)
        const override;
    void flush() override;
    const char *name() const override { return "conventional"; }

    void setHotPathProfile(HotPathProfile *p) override { prof = p; }

    /** Number of block entries. */
    u64 entries() const { return static_cast<u64>(array.sets()) *
        array.ways(); }

  private:
    /** Client flag bit of the directory's per-way flag byte. */
    static constexpr u8 LineDirty = 2;

    /** Evict the line at (set, way), honoring inclusion and dirtiness. */
    void evictLine(u32 set, u32 way);

    /**
     * Per-operation fault hook: with an injector attached, possibly
     * flip one data bit of a resident approximate block (conventional
     * tag metadata is assumed ECC-protected, so only data-array faults
     * apply here). Reports the introduced error to the guardrail.
     */
    void maybeInjectFault();

    /**
     * SoA tag directory plus a separate block arena: probes — the
     * dominant cost of the split organization's precise-half checks on
     * every approximate access — scan a contiguous key run instead of
     * striding over 80-byte line structs.
     */
    SetAssocDir array;
    std::vector<BlockData> blocks;
    AddrSlicer slicer;
    Tick hitLatency;
    const ApproxRegistry *registry;
    HotPathProfile *prof = nullptr;
};

} // namespace dopp

#endif // DOPP_SIM_LLC_HH
