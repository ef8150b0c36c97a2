/**
 * @file
 * Experiment harness: builds the Table 1 system around a chosen LLC
 * organization, runs one benchmark on it, and collects everything the
 * evaluation needs (output, the run's stat snapshot, including the
 * periodic LLC snapshot analyses of the characterization figures).
 */

#ifndef DOPP_HARNESS_EXPERIMENT_HH
#define DOPP_HARNESS_EXPERIMENT_HH

#include <atomic>
#include <string>
#include <type_traits>
#include <vector>

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

    /**
     * @name Snapshot analyses (paper Sec 2 and 5.1)
     * Each analysis named here (findSnapshotAnalysis,
     * analysis/similarity.hh) is run on an LLC snapshot taken every
     * snapshotPeriod accesses (0: none during the run) and once more
     * at the end, and sampled into the Distribution
     * "snapshot.<name>" of RunResult::stats. An empty list takes no
     * snapshot and registers no stat; only then is snapshotPeriod
     * left out of the config fingerprint.
     */
    /// @{
    u64 snapshotPeriod = 0;
    std::vector<std::string> snapshotAnalyses;
    /// @}

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
     * Cooperative abort flag handed to SimRuntime (the batch runner's
     * per-run watchdog sets it on timeout). Never affects a completed
     * run's results — it is excluded from the config fingerprint
     * (harness/journal.hh) like tracePath.
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
 * field (tracePath, abortFlag) does not. The workload name,
 * organization, partition list, slice layout and snapshot analyses
 * are values the consumers encode by hand.
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

/** The DoppConfig fields a journal record carries
 * (RunResult::doppConfig): @p v(key, field) for each, in record
 * order. The journal's writer, key check and reader all visit it. */
template <typename Dc, typename Visitor>
void
visitDoppConfigFields(Dc &d, Visitor &&v)
{
    static_assert(std::is_same_v<std::remove_const_t<Dc>, DoppConfig>);
    v("tagEntries", d.tagEntries);
    v("tagWays", d.tagWays);
    v("dataEntries", d.dataEntries);
    v("dataWays", d.dataWays);
    v("mapBits", d.mapBits);
    v("hashMode", d.hashMode);
    v("hitLatency", d.hitLatency);
    v("unified", d.unified);
    v("hashDataSetIndex", d.hashDataSetIndex);
    v("dataPolicy", d.dataPolicy);
    v("tagCountAwareData", d.tagCountAwareData);
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

    std::vector<double> output;     ///< application final output

    /**
     * End-of-run snapshot of the run's full StatRegistry, the only
     * record of what the run counted: every stat any layer
     * registered, under its dotted name. Among them "run.runtimeCycles"
     * (slowest core's cycles) and "run.tagsPerDataEntry" (end-of-run
     * occupancy), "llc.*" (aggregate LLC; "llc.precise.*" and
     * "llc.dopp.*" for the decoupled organizations' halves),
     * "hierarchy.*", "mem.reads"/"mem.writes" (off-chip blocks), and,
     * when configured, "fault.*" (injector tallies) and "qor.*"
     * (guardrail). Read with StatSnapshot::counter/value/has.
     */
    StatSnapshot stats;

    /** Geometry actually used (for the energy model). */
    DoppConfig doppConfig;

    /** @name Fault-campaign traces (empty when not configured) */
    /// @{

    /** Full deterministic fault trace, in injection order. */
    std::vector<FaultEvent> faultTrace;

    /** Degradation intervals in guardrail-observation time. */
    std::vector<DegradedInterval> degradedIntervals;
    /// @}
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
 * divisibility. Geometry: mapBits in [1, 30], non-zero llcWays, each
 * slice's capacity splits into two halves of whole, non-zero numbers
 * of sets (the split organization's precise and Doppelgänger halves),
 * and a finite dataFraction that gives the split half's data array at
 * least one whole set (and no array more than 2^32 - 1 entries).
 * Non-fatal, so the campaign codec can reject a bad batch line
 * instead of dying on it.
 * @return the error text, or an empty string when the layout is valid.
 */
std::string llcLayoutError(const SliceConfig &s, const RunConfig &cfg);

/**
 * Check @p cfg's snapshot analyses: each must name an entry of
 * findSnapshotAnalysis's table, at most once. Non-fatal, like
 * llcLayoutError.
 * @return the error text, or an empty string when the list is valid.
 */
std::string snapshotAnalysesError(const RunConfig &cfg);

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
