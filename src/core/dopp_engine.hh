/**
 * @file
 * The Doppelgänger engine interface, DoppConfig, and the pieces every
 * engine shares: the map-parameter region cache and the map-function
 * dispatch (a plain function pointer, no std::function).
 *
 * The simulator has one engine, DoppelgangerCache
 * (doppelganger_cache.hh). The interface stays virtual so tests can
 * swap in the frozen reference engine kept under tests/ through
 * DoppEngineMaker.
 */

#ifndef DOPP_CORE_DOPP_ENGINE_HH
#define DOPP_CORE_DOPP_ENGINE_HH

#include <optional>
#include <vector>

#include "core/map_function.hh"
#include "sim/llc.hh"
#include "util/types.hh"

namespace dopp
{

/**
 * Optional replacement for the map function: called instead of
 * computeMap() when non-null. A plain function pointer (capture-less
 * lambdas convert implicitly) so the per-access dispatch is one
 * predictable indirect call — the exact-deduplication baseline plugs
 * a 64-bit content hash in here to share entries only between
 * byte-identical blocks.
 */
using MapOverrideFn = u64 (*)(const u8 *block, const MapParams &);

/** Configuration of a Doppelgänger (or uniDoppelgänger) cache. */
struct DoppConfig
{
    /** Tag-array entries; 16 K = "1 MB tag-equivalent" (Table 1). */
    u32 tagEntries = 16 * 1024;
    u32 tagWays = 16;

    /** Data-array entries; 4 K = the paper's base 1/4 data array. */
    u32 dataEntries = 4 * 1024;
    u32 dataWays = 16;

    /** Map-space size M (Table 1 default: 14-bit). */
    unsigned mapBits = 14;

    /** Hash-function selection (ablation; paper uses AvgAndRange). */
    MapHashMode hashMode = MapHashMode::AvgAndRange;

    /** Map-function override; see MapOverrideFn. */
    MapOverrideFn mapOverride = nullptr;

    /** Total hit latency in cycles (Table 1: 6). */
    Tick hitLatency = 6;

    /** uniDoppelgänger mode: precise blocks may reside here too. */
    bool unified = false;

    /**
     * XOR-fold the whole map into the data-array set index instead of
     * using the raw low map bits (the paper's Fig 4 uses the latter).
     * Structured integer data can land every map on a few low-bit
     * residues, leaving most sets idle; folding — standard practice for
     * hashed cache indexing — restores set balance without changing
     * which blocks share an entry. Ablate with bench_ablations.
     */
    bool hashDataSetIndex = true;

    /** Annotation fallback for addresses without a registered region
     * (standalone/unit-test use; split routing guarantees a region). */
    ElemType defaultType = ElemType::F32;
    double defaultMin = 0.0;
    double defaultMax = 1.0;

    ReplPolicy tagPolicy = ReplPolicy::LRU;
    ReplPolicy dataPolicy = ReplPolicy::LRU;

    /**
     * Tag-count-aware data replacement: evict the data entry with the
     * fewest linked tags (fewest back-invalidations and writebacks),
     * breaking ties by the base policy's choice. The paper suggests
     * exactly this as future work (Sec 3.5: "a more specialized
     * replacement algorithm could take into account ... the number of
     * tags associated to a data entry"). Ablate with bench_ablations.
     */
    bool tagCountAwareData = false;
};

/**
 * Abstract Doppelgänger engine: the LastLevelCache surface plus the
 * introspection API tests, stats views and the fault subsystem use.
 * Holds the configuration, the per-region MapParams cache and the
 * map-function dispatch.
 */
class DoppEngine : public LastLevelCache
{
  public:
    DoppEngine(MainMemory &memory, const DoppConfig &config,
               const ApproxRegistry *registry,
               StatRegistry *stat_registry,
               const std::string &stat_group);

    const char *
    name() const override
    {
        return cfg.unified ? "uniDoppelganger" : "doppelganger";
    }

    const DoppConfig &config() const { return cfg; }

    /** @name Introspection (tests, stats, examples) */
    /// @{

    /** Number of valid tag entries. */
    virtual u64 tagCount() const = 0;

    /** Number of valid data entries. */
    virtual u64 dataCount() const = 0;

    /** Tags currently linked to @p addr's data entry (0 if absent). */
    virtual unsigned tagsSharingWith(Addr addr) const = 0;

    /** Whether two resident blocks share one data entry. */
    virtual bool sameDataEntry(Addr a, Addr b) const = 0;

    /** The 64 B the cache would serve for @p addr (nullptr if absent). */
    virtual const u8 *peekBlock(Addr addr) const = 0;

    /** Map value stored for @p addr's tag (nullopt if absent/precise). */
    virtual std::optional<u64> mapOf(Addr addr) const = 0;

    /**
     * Exhaustive structural invariant check (tests, fault repair):
     *  - every valid tag's map resolves to a valid data entry;
     *  - walking each data entry's list visits exactly the valid tags
     *    whose map points at it, with consistent prev/next links;
     *  - every valid approximate data entry has a non-empty list;
     *  - precise tags (unified mode) have null prev/next and own their
     *    entry exclusively.
     * Hardened against corrupted metadata: out-of-range pointers and
     * cycles are reported as violations, never dereferenced.
     * @param why receives a description of the first violation.
     * @return true iff all invariants hold.
     */
    virtual bool checkInvariants(std::string *why = nullptr) const = 0;

    /**
     * Self-check-and-repair path for injected metadata faults: runs
     * checkInvariants and, on a violation, rebuilds every tag list
     * from the surviving tag metadata — tags whose map no longer
     * resolves to a data entry are back-invalidated and dropped
     * (rescuing dirty private copies to memory), orphaned data entries
     * are freed, and all prev/next links are regenerated. Counted in
     * stats() as faultsDetected / faultsRepaired / repairTagsDropped /
     * repairEntriesDropped. Panics if invariants still fail after the
     * rebuild (repair is by construction exhaustive, so that would be
     * a simulator bug).
     *
     * @return true if a corruption was detected (and repaired).
     */
    virtual bool selfCheckAndRepair() = 0;
    /// @}

  protected:
    /**
     * Map parameters (type/range/M) for a block address, served from
     * the per-region cache. The cache is built lazily on the first
     * call (the LLC is constructed before workloads annotate their
     * regions); after that the registry must stay untouched — mirrors
     * the paper's start-of-application range transfer (Sec 4.1) and
     * is asserted via ApproxRegistry::generation().
     */
    MapParams paramsFor(Addr addr) const;

    /** Snapshot the registry into paramCache (see paramsFor). */
    void buildParamCache() const;

    /** Compute the map of @p bytes at @p addr, honoring mapOverride. */
    u64
    mapFor(Addr addr, const u8 *bytes) const
    {
        const MapParams p = paramsFor(addr);
        if (hasMapOverride)
            return cfg.mapOverride(bytes, p);
        return computeMap(bytes, p, cfg.hashMode);
    }

    DoppConfig cfg;
    const ApproxRegistry *registry;

    /** True iff cfg.mapOverride is installed; cached so the hot path
     * tests one byte instead of a pointer load every access. */
    bool hasMapOverride;

    /** One cached [base, end) → MapParams translation. */
    struct CachedRegion
    {
        Addr base = 0;
        Addr end = 0;
        MapParams params;
    };

    /** Per-region MapParams, sorted by base; see paramsFor(). Mutable
     * because the build is lazily triggered from const lookups. */
    mutable std::vector<CachedRegion> paramCache;
    /** Most recently hit cache slot (index into paramCache), or -1.
     * Accesses stream through one region at a time, so this memo
     * short-circuits the binary search almost always. */
    mutable i32 hotParam = -1;
    /** Registry generation paramCache was built against. */
    mutable u64 paramGen = 0;
    mutable bool paramsCached = false;

    /** Fallback for addresses outside every region. */
    MapParams defaultParams;
};

/** Construct a DoppelgangerCache. */
std::unique_ptr<DoppEngine>
makeDoppEngine(MainMemory &memory, const DoppConfig &config,
               const ApproxRegistry *registry,
               StatRegistry *stat_registry = nullptr,
               const std::string &stat_group = "llc.dopp");

/** Builds the engine an organization wraps: makeDoppEngine, or a
 * test's reference engine. */
using DoppEngineMaker = std::unique_ptr<DoppEngine> (*)(
    MainMemory &memory, const DoppConfig &config,
    const ApproxRegistry *registry, StatRegistry *stat_registry,
    const std::string &stat_group);

} // namespace dopp

#endif // DOPP_CORE_DOPP_ENGINE_HH
