/**
 * @file
 * Experiment harness: builds the Table 1 system around a chosen LLC
 * organization, runs one benchmark on it, and collects everything the
 * evaluation needs (runtime, output, LLC/hierarchy stats, off-chip
 * traffic, periodic snapshots for the characterization figures).
 */

#ifndef DOPP_HARNESS_EXPERIMENT_HH
#define DOPP_HARNESS_EXPERIMENT_HH

#include <atomic>
#include <functional>
#include <string>
#include <type_traits>

#include "analysis/similarity.hh"
#include "core/doppelganger_cache.hh"
#include "core/split_llc.hh"
#include "fault/fault_injector.hh"
#include "fault/qor_guardrail.hh"
#include "sim/hierarchy.hh"
#include "sim/mem_tier.hh"
#include "sim/slice_hash.hh"
#include "workloads/workload.hh"

namespace dopp
{

/**
 * How a sliced run sizes the Doppelgänger map-value space
 * (DESIGN.md §15). Slicing fragments the address space, so the map
 * space — the dedup pool similar blocks share through — can either
 * stay global-sized in every slice or shrink with the slice:
 *
 *  - Shared: every slice keeps the full mapBits. The total map-value
 *    space is N× the unsliced one, but any pair of blocks *within* a
 *    slice can still share an entry at unsliced precision.
 *  - PerSlice: each slice drops log2(N) map bits, keeping the total
 *    map space at the unsliced budget. The per-slice dedup pool
 *    coarsens — the organization trade-off bench_fig_slices measures.
 */
enum class MapSpaceMode : u8
{
    Shared,   ///< full mapBits per slice (default)
    PerSlice, ///< mapBits - log2(sliceCount) per slice
};

/** Canonical mode name ("shared" / "per-slice"). */
const char *mapSpaceModeName(MapSpaceMode mode);

/** Exact inverse of mapSpaceModeName(); fatal on an unknown name. */
MapSpaceMode mapSpaceModeFromName(const std::string &name);

/** One run's configuration. A result-affecting field must also be
 * listed in visitConfigFields (below), or journals cannot tell runs
 * that differ in it apart. */
struct RunConfig
{
    /** Benchmark to run. runWorkload's name argument overrides it; the
     * batch runner (harness/batch_runner.hh) requires it. */
    std::string workloadName;

    /** LLC organization: the name of a registered factory builder
     * (llc_factory.hh) — "baseline", "split-doppelganger",
     * "uniDoppelganger", "dedup", "bdi", or any organization an
     * experiment registers itself. */
    std::string llcName = "baseline";

    /** Doppelgänger map-space size M (Table 1 default 14). */
    unsigned mapBits = 14;

    /** Data-array entries as a fraction of tag entries (Sec 5.2);
     * the paper's base configuration is 1/4. */
    double dataFraction = 0.25;

    /** Map hash selection (ablations; paper default AvgAndRange). */
    MapHashMode hashMode = MapHashMode::AvgAndRange;

    /** XOR-folded data-array set index (ablation; see DoppConfig). */
    bool hashDataSetIndex = true;

    /** Data-array replacement policy (ablation; paper uses LRU). */
    ReplPolicy dataPolicy = ReplPolicy::LRU;

    /** Tag-count-aware data victim selection (Sec 3.5 future work). */
    bool tagCountAwareData = false;

    /**
     * Build Doppelgänger engines as the reference (array-of-structs)
     * implementation instead of the optimized structure-of-arrays one
     * (see dopp_engine.hh). Results are bit-identical by contract —
     * the differential suite enforces it — so, like the observation
     * hooks below, this switch is excluded from the journal config
     * fingerprint (harness/journal.hh): it must never make two
     * otherwise-equal runs look different. The factory builders also
     * honor DOPP_REFERENCE_IMPL=1 from the environment.
     */
    bool doppReference = false;

    /**
     * @name Sliced LLC front end (sim/sliced_llc.hh, DESIGN.md §15)
     * Resolution order for sliceCount/sliceHash is explicit >
     * environment > default (resolvedSliceConfig), the same contract
     * DOPP_JOBS follows.
     */
    /// @{

    /**
     * Number of LLC slices. 0 (the default, unless DOPP_SLICES is
     * set) builds the organization directly — the legacy unsliced
     * layout. 1 routes through a single-slice SlicedLlc front end
     * (bit-identical to unsliced; the pin tests enforce it). N ≥ 2
     * must be a power of two dividing baselineBytes; each slice gets
     * 1/N of the capacity.
     */
    u32 sliceCount = 0;

    /** Slice-selection policy name ("bitselect" / "sandybridge");
     * empty defers to DOPP_SLICE_HASH, then "bitselect". */
    std::string sliceHash;

    /** Map-value-space sizing for sliced Doppelgänger organizations;
     * result-affecting, so it is in the config fingerprint. */
    MapSpaceMode mapSpaceMode = MapSpaceMode::Shared;
    /// @}

    /** Workload sizing/seed. */
    WorkloadConfig workload;

    /** If non-empty, record every simulated access to this trace file
     * (sim/trace.hh) for later replay. */
    std::string tracePath;

    /** If non-zero, capture an LLC snapshot every N accesses and hand
     * it to onSnapshot. */
    u64 snapshotPeriod = 0;
    std::function<void(const Snapshot &)> onSnapshot;

    /** Baseline LLC geometry (Table 1). */
    u64 baselineBytes = 2 * 1024 * 1024;
    u32 llcWays = 16;
    Tick llcLatency = 6;

    /** Fault injection (all rates zero: no injector is attached). */
    FaultConfig fault;

    /** QoR guardrail (budget zero: no guardrail is attached). */
    QorConfig qor;

    /**
     * Partitioned main-memory tier (sim/mem_tier.hh). Empty partition
     * list: the legacy flat DRAM model, bit-identical to every
     * pre-tier run. Non-empty: annotated approximate regions route to
     * the approximate/NVM partitions, per-partition fault models draw
     * through the run's FaultInjector, and the guardrail (when
     * qor.migrateFactor > 0) can migrate regions back to the precise
     * partition.
     */
    MemTierConfig memTier;

    /**
     * Abort-poll granularity in accesses handed to SimRuntime
     * (0 = keep the 4096-access default). Purely an observation-
     * latency knob for the watchdog: like abortFlag it never affects
     * a completed run's results and is excluded from the config
     * fingerprint (harness/journal.hh).
     */
    u64 abortPollAccesses = 0;

    /**
     * Cooperative abort flag handed to SimRuntime (the batch runner's
     * per-run watchdog sets it on timeout). Never affects a completed
     * run's results — it is excluded from the config fingerprint
     * (harness/journal.hh) like the observation hooks above.
     */
    const std::atomic<bool> *abortFlag = nullptr;
};

/**
 * The one list of RunConfig's result-affecting scalars. Calls
 * @p v(section, key, field) for each, in fingerprint order; @p section
 * is "" for top-level fields. configFingerprint and the campaign codec
 * (harness/journal.hh, harness/campaign_service.hh) are visitors over
 * it, so a field listed here is hashed, written and read back under
 * one name.
 *
 * The rule: a field that can change a completed run's RunResult goes
 * here (partition fields in visitPartitionFields); an observation-only
 * field (tracePath, snapshotPeriod, onSnapshot, abortFlag,
 * abortPollAccesses, doppReference) does not. The workload name,
 * organization, partition list and slice layout are resolved values
 * the consumers encode by hand.
 */
template <typename Cfg, typename Visitor>
void
visitConfigFields(Cfg &cfg, Visitor &&v)
{
    static_assert(std::is_same_v<std::remove_const_t<Cfg>, RunConfig>);
    v("", "mapBits", cfg.mapBits);
    v("", "dataFraction", cfg.dataFraction);
    v("", "hashMode", cfg.hashMode);
    v("", "hashDataSetIndex", cfg.hashDataSetIndex);
    v("", "dataPolicy", cfg.dataPolicy);
    v("", "tagCountAwareData", cfg.tagCountAwareData);
    v("", "scale", cfg.workload.scale);
    v("", "seed", cfg.workload.seed);
    v("", "perUseRanges", cfg.workload.perUseRanges);
    v("", "baselineBytes", cfg.baselineBytes);
    v("", "llcWays", cfg.llcWays);
    v("", "llcLatency", cfg.llcLatency);
    v("fault", "seed", cfg.fault.seed);
    v("fault", "memoryRate", cfg.fault.memoryRate);
    v("fault", "dataRate", cfg.fault.dataRate);
    v("fault", "tagMetaRate", cfg.fault.tagMetaRate);
    v("fault", "mtagMetaRate", cfg.fault.mtagMetaRate);
    v("qor", "budget", cfg.qor.budget);
    v("qor", "reenableFraction", cfg.qor.reenableFraction);
    v("qor", "window", cfg.qor.window);
    v("qor", "minDwell", cfg.qor.minDwell);
    v("qor", "migrateFactor", cfg.qor.migrateFactor);
    v("qor", "migrateDwell", cfg.qor.migrateDwell);
}

/** visitConfigFields for one memory-tier partition: @p v(key, field)
 * for every field of @p p, in fingerprint order. */
template <typename Part, typename Visitor>
void
visitPartitionFields(Part &p, Visitor &&v)
{
    static_assert(
        std::is_same_v<std::remove_const_t<Part>, MemPartitionProfile>);
    v("kind", p.kind);
    v("name", p.name);
    v("bitErrorRate", p.bitErrorRate);
    v("refreshFaultRate", p.refreshFaultRate);
    v("refreshIntervalAccesses", p.refreshIntervalAccesses);
    v("readLatency", p.readLatency);
    v("writeLatency", p.writeLatency);
    v("writeBufferDepth", p.writeBufferDepth);
    v("bufferedWriteLatency", p.bufferedWriteLatency);
    v("readEnergyPj", p.readEnergyPj);
    v("writeEnergyPj", p.writeEnergyPj);
    v("standbyPowerMw", p.standbyPowerMw);
}

/** Everything measured in one run. */
struct RunResult
{
    std::string workload;
    std::string organization;

    /** Set by the batch runner when the run threw or was cancelled
     * instead of completing; every other field is then meaningless. */
    bool failed = false;
    std::string error;

    Tick runtime = 0;               ///< slowest core's cycles
    std::vector<double> output;     ///< application final output

    /**
     * End-of-run snapshot of the run's full StatRegistry: every
     * counter any layer registered, under its dotted name ("llc.*",
     * "hierarchy.*", "mem.*", "fault.*", "qor.*", "run.*"). This is
     * the authoritative record; the typed fields below are
     * compatibility views derived from the same counters.
     */
    StatSnapshot stats;

    LlcStats llc;                   ///< aggregate LLC stats
    LlcStats preciseHalf;           ///< split only: precise half
    LlcStats doppHalf;              ///< split only: Doppelgänger half
    HierarchyStats hierarchy;
    u64 memReads = 0;               ///< off-chip demand reads (blocks)
    u64 memWrites = 0;              ///< off-chip writebacks (blocks)

    /** Geometry actually used (for the energy model). */
    DoppConfig doppConfig;

    /** End-of-run occupancy: tags per valid data entry. */
    double tagsPerDataEntry = 0.0;

    /** @name Fault-campaign results (zero/empty when not configured) */
    /// @{

    /** Injector tallies: per-domain injections, detections, repairs. */
    FaultStats fault;

    /** Full deterministic fault trace, in injection order. */
    std::vector<FaultEvent> faultTrace;

    u64 guardrailDegradations = 0; ///< times the guardrail tripped
    u64 guardrailDegradedOps = 0;  ///< observations spent degraded
    double guardrailEstimate = 0.0; ///< final EWMA error estimate

    /** Degradation intervals in guardrail-observation time. */
    std::vector<DegradedInterval> degradedIntervals;
    /// @}

    u64 offChipTraffic() const { return memReads + memWrites; }
};

/**
 * Build the DoppConfig for a Doppelgänger organization under @p cfg:
 * @p unified selects the 2 MB-tag-equivalent unified geometry, false
 * the 1 MB-tag-equivalent half of the split organization (Table 1).
 */
DoppConfig doppConfigFor(const RunConfig &cfg, bool unified);

/** Build the DoppConfig the split organization uses under @p cfg. */
DoppConfig splitDoppConfig(const RunConfig &cfg);

/** Build the DoppConfig the unified organization uses under @p cfg. */
DoppConfig uniDoppConfig(const RunConfig &cfg);

/** Fully resolved slice configuration of one run. */
struct SliceConfig
{
    u32 count = 0; ///< 0 = legacy unsliced direct build
    SliceHashKind hash = SliceHashKind::BitSelect;
    MapSpaceMode mapSpace = MapSpaceMode::Shared;
};

/**
 * Check @p cfg's LLC layout under the slice layout @p s. Slice knobs:
 * power-of-two count, hash policy range, capacity and map-bits
 * divisibility. Geometry: non-zero llcWays, and each slice's capacity
 * splits into two halves of whole, non-zero numbers of sets (the split
 * organization's precise and Doppelgänger halves). Non-fatal, so the
 * campaign codec can reject a bad batch line instead of dying on it.
 * @return the error text, or an empty string when the layout is valid.
 */
std::string llcLayoutError(const SliceConfig &s, const RunConfig &cfg);

/**
 * Resolve @p cfg's slice knobs: explicit > environment (DOPP_SLICES /
 * DOPP_SLICE_HASH) > default. Fatal with llcLayoutError's text on
 * an invalid combination, and on garbage, naming the offending knob.
 * Both the factory (buildLlc) and the journal fingerprint resolve
 * through here, so a run and its resume key can never disagree about
 * the slice layout.
 */
SliceConfig resolvedSliceConfig(const RunConfig &cfg);

/**
 * Run benchmark @p workload_name on the system described by @p cfg.
 * Deterministic: equal configs give equal results.
 */
RunResult runWorkload(const std::string &workload_name,
                      const RunConfig &cfg);

/** As above, naming the benchmark via cfg.workloadName (fatal if
 * empty). */
RunResult runWorkload(const RunConfig &cfg);

/** Read DOPP_WORKLOAD_SCALE (default 1.0) for bench sizing; fatal on
 * a non-positive or non-numeric value. */
double workloadScaleFromEnv();

} // namespace dopp

#endif // DOPP_HARNESS_EXPERIMENT_HH
