#include "experiment.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>

#include "harness/llc_factory.hh"
#include "sim/llc.hh"
#include "sim/trace.hh"
#include "sim/memory.hh"
#include "util/env.hh"
#include "util/fileio.hh"
#include "util/logging.hh"

namespace dopp
{

const char *
mapSpaceModeName(MapSpaceMode mode)
{
    switch (mode) {
      case MapSpaceMode::Shared: return "shared";
      case MapSpaceMode::PerSlice: return "per-slice";
    }
    return "?";
}

MapSpaceMode
mapSpaceModeFromName(const std::string &name)
{
    for (MapSpaceMode mode :
         {MapSpaceMode::Shared, MapSpaceMode::PerSlice}) {
        if (name == mapSpaceModeName(mode))
            return mode;
    }
    fatal("unknown map-space mode '%s' (known: shared, per-slice)",
          name.c_str());
    return MapSpaceMode::Shared;
}

std::string
llcLayoutError(const SliceConfig &s, const RunConfig &cfg)
{
    const std::string count = std::to_string(s.count);
    if ((s.count & (s.count - 1)) != 0) {
        return "slice count " + count + " is not a power of two "
               "(DOPP_SLICES / RunConfig::sliceCount)";
    }
    if (s.hash == SliceHashKind::SandyBridge &&
        s.count > maxSandyBridgeSlices) {
        return "sandy bridge slice hash supports at most " +
               std::to_string(maxSandyBridgeSlices) +
               " slices (asked for " + count + ")";
    }
    if (s.count != 0 && cfg.baselineBytes % s.count != 0) {
        return "baselineBytes " + std::to_string(cfg.baselineBytes) +
               " does not divide into " + count + " slices";
    }
    if (s.count != 0 && s.mapSpace == MapSpaceMode::PerSlice &&
        cfg.mapBits <= static_cast<unsigned>(std::countr_zero(s.count))) {
        return "per-slice map space needs mapBits > log2(sliceCount) "
               "(mapBits=" + std::to_string(cfg.mapBits) +
               ", slices=" + count + ")";
    }
    // The map kernels take 1..30 bits (a per-slice map space keeps
    // at least one, checked above).
    if (cfg.mapBits < 1 || cfg.mapBits > 30) {
        return "mapBits " + std::to_string(cfg.mapBits) +
               " is outside [1, 30]";
    }
    if (cfg.llcWays == 0)
        return "llcWays must be non-zero";
    // Every organization sizes its sets from the per-slice capacity;
    // the split one from each half of it.
    const u64 sliceBytes = cfg.baselineBytes / std::max<u32>(s.count, 1);
    const u64 halfSetBytes = 2 * u64{cfg.llcWays} * blockBytes;
    if (sliceBytes == 0 || sliceBytes % halfSetBytes != 0) {
        return "LLC capacity of " + std::to_string(sliceBytes) +
               " bytes per slice does not split into two halves of "
               "whole " + std::to_string(cfg.llcWays) +
               "-way sets (baselineBytes / slices must be a non-zero "
               "multiple of " + std::to_string(halfSetBytes) + ")";
    }
    // Data arrays hold tagEntries * dataFraction entries: the split
    // half's array, the smallest, needs one whole set, and the unified
    // one, the largest, must count its entries in a u32.
    const double halfTags = static_cast<double>(sliceBytes / 2 / blockBytes);
    if (!std::isfinite(cfg.dataFraction) ||
        std::floor(halfTags * cfg.dataFraction) <
            static_cast<double>(cfg.llcWays) ||
        2 * halfTags * cfg.dataFraction >
            static_cast<double>(std::numeric_limits<u32>::max())) {
        char fraction[32];
        std::snprintf(fraction, sizeof(fraction), "%g", cfg.dataFraction);
        return "dataFraction " + std::string(fraction) +
               " does not leave a data array of whole " +
               std::to_string(cfg.llcWays) + "-way sets with at most "
               "2^32 - 1 entries (" +
               std::to_string(static_cast<u64>(halfTags)) +
               " tags per split half)";
    }
    return "";
}

SliceConfig
resolvedSliceConfig(const RunConfig &cfg)
{
    SliceConfig s;
    // Explicit > environment > default, matching DOPP_JOBS. envU64
    // rejects 0, garbage and values past u32 outright, naming the
    // variable.
    s.count = cfg.sliceCount
        ? cfg.sliceCount
        : static_cast<u32>(envU64("DOPP_SLICES", 0,
                                  std::numeric_limits<u32>::max()));
    s.mapSpace = cfg.mapSpaceMode;
    if (!cfg.sliceHash.empty()) {
        s.hash = sliceHashFromName(cfg.sliceHash);
    } else {
        const std::string h = envToken("DOPP_SLICE_HASH", "bitselect");
        if (!sliceHashTryParse(h, s.hash)) {
            fatal("DOPP_SLICE_HASH='%s' is not a slice hash (known: "
                  "bitselect, sandybridge)", h.c_str());
        }
    }
    if (const std::string e = llcLayoutError(s, cfg); !e.empty())
        fatal("%s", e.c_str());
    return s;
}

DoppConfig
doppConfigFor(const RunConfig &cfg, bool unified)
{
    DoppConfig d;
    // Table 1 tag-equivalents: the unified organization replaces the
    // whole baseline (32 K tags for 2 MB); the split's Doppelgänger
    // half replaces one half of it (16 K tags).
    d.tagEntries = static_cast<u32>(
        cfg.baselineBytes / (unified ? 1 : 2) / blockBytes);
    d.tagWays = cfg.llcWays;
    d.dataEntries = static_cast<u32>(
        static_cast<double>(d.tagEntries) * cfg.dataFraction);
    d.dataWays = cfg.llcWays;
    d.mapBits = cfg.mapBits;
    d.hashMode = cfg.hashMode;
    d.hashDataSetIndex = cfg.hashDataSetIndex;
    d.dataPolicy = cfg.dataPolicy;
    d.tagCountAwareData = cfg.tagCountAwareData;
    d.hitLatency = cfg.llcLatency;
    d.unified = unified;
    return d;
}

DoppConfig
splitDoppConfig(const RunConfig &cfg)
{
    return doppConfigFor(cfg, false);
}

DoppConfig
uniDoppConfig(const RunConfig &cfg)
{
    return doppConfigFor(cfg, true);
}

double
workloadScaleFromEnv()
{
    return envDouble("DOPP_WORKLOAD_SCALE", 1.0);
}

RunResult
runWorkload(const RunConfig &cfg)
{
    if (cfg.workloadName.empty())
        fatal("runWorkload(cfg): config has no workloadName");
    return runWorkload(cfg.workloadName, cfg);
}

namespace
{

/**
 * Append one JSON line for @p r to the DOPP_STATS_JSON path, if set.
 * The batch runner runs workloads from worker threads, so the append
 * is serialized process-wide; line order across runs is therefore
 * unspecified under DOPP_JOBS > 1. Each record is one O_APPEND
 * write(2) + fsync(2) (util/fileio.hh), so a crash mid-campaign loses
 * at most the record being written and never interleaves lines.
 */
void
maybeAppendStatsJson(const RunResult &r)
{
    const char *path = std::getenv("DOPP_STATS_JSON");
    if (!path || !*path)
        return;

    std::string record;
    record.reserve(256 + 16 * r.stats.size());
    record += "{\"workload\":\"";
    record += r.workload;
    record += "\",\"organization\":\"";
    record += r.organization;
    record += "\",\"stats\":";
    record += r.stats.json();
    record += "}\n";

    static std::mutex ioMutex;
    std::lock_guard<std::mutex> lock(ioMutex);
    static std::unique_ptr<AppendLog> log;
    if (!log || log->path() != path)
        log = std::make_unique<AppendLog>(path);
    log->append(record);
}

} // namespace

RunResult
runWorkload(const std::string &workload_name, const RunConfig &cfg)
{
    // A bad slice layout or LLC geometry is fatal before anything is
    // built (buildLlc resolves it again).
    resolvedSliceConfig(cfg);

    // One registry per run: every layer below registers its counters
    // here, and the end-of-run snapshot becomes RunResult::stats.
    StatRegistry statReg;

    MainMemory memory(cfg.memTier);
    memory.registerStats(statReg.group("mem"));
    ApproxRegistry registry;

    LlcBuilt built =
        buildLlc(cfg.llcName, memory, registry, cfg, statReg);
    LastLevelCache *llc = built.llc.get();

    // Fault injection and QoR guardrail (attached independently: a
    // guardrail without faults budgets the baseline approximation
    // error; an injector without a guardrail measures raw resilience).
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<QorGuardrail> guard;
    if (cfg.fault.enabled() || cfg.memTier.anyFaultRate()) {
        injector = std::make_unique<FaultInjector>(cfg.fault);
        injector->registerStats(statReg.group("fault"));
    }
    if (cfg.qor.enabled()) {
        guard = std::make_unique<QorGuardrail>(cfg.qor);
        guard->registerStats(statReg.group("qor"));
    }

    if (injector && cfg.memTier.enabled()) {
        // Tiered memory: the per-partition fault models draw through
        // the run's injector, and every applied flip is scored against
        // the owning region's declared span so the guardrail sees
        // memory-tier error alongside LLC substitution error.
        memory.setFaultInjector(injector.get());
        QorGuardrail *g = guard.get();
        memory.onBitFlip = [g, &registry](Addr addr, u8 *block,
                                          u32 bit, u32 part) {
            (void)part;
            if (!g)
                return;
            const ApproxRegion *region = registry.find(addr);
            if (!region)
                return;
            const unsigned elem = bit / elemBits(region->type);
            const double after =
                blockElement(block, region->type, elem);
            // Un-flip to recover the pre-fault value of the element.
            block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
            const double before =
                blockElement(block, region->type, elem);
            block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
            double err = std::abs(after - before) /
                std::max(region->span(), 1e-30);
            if (!std::isfinite(err) || err > 1.0)
                err = 1.0;
            g->observeError(err);
        };
    }
    if (guard && cfg.memTier.enabled() && cfg.qor.migrateFactor > 0.0) {
        // Cross-tier escalation: MIGRATED pins the approximate
        // regions' pages to the precise partition; stepping back down
        // restores the approximate routes.
        MainMemory *m = &memory;
        guard->onMigrate = [m](bool migrate) {
            if (migrate)
                m->migrateApproxToPrecise();
            else
                m->restoreApproxRoutes();
        };
    }

    if (injector) {
        llc->setFaultInjector(injector.get());
        if (cfg.fault.memoryRate > 0.0 && !cfg.memTier.enabled()) {
            FaultInjector *fi = injector.get();
            QorGuardrail *g = guard.get();
            // Approximate-DRAM flips materialize at demand reads; only
            // annotated regions live in the relaxed-refresh partition.
            memory.faultHook = [fi, g, &registry](Addr addr,
                                                  u8 *block) {
                const ApproxRegion *region = registry.find(addr);
                if (!region || !fi->draw(FaultDomain::MemoryData))
                    return;
                const u32 bit =
                    static_cast<u32>(fi->pick(blockBytes * 8));
                const unsigned elem = bit / elemBits(region->type);
                const double before =
                    blockElement(block, region->type, elem);
                block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
                const double after =
                    blockElement(block, region->type, elem);
                fi->record(FaultDomain::MemoryData, addr, 0, bit);
                if (g) {
                    // The flipped element's own error; see the data
                    // fault hooks in llc.cc / doppelganger_cache.cc.
                    double err = std::abs(after - before) /
                        std::max(region->span(), 1e-30);
                    if (!std::isfinite(err) || err > 1.0)
                        err = 1.0;
                    g->observeError(err);
                }
            };
        }
    }
    if (guard)
        llc->setGuardrail(guard.get());

    HierarchyConfig hc; // Table 1 defaults
    MemorySystem system(hc, *llc, memory, &statReg, "hierarchy");
    SimRuntime rt(system, memory, registry);
    rt.abortFlag = cfg.abortFlag; // watchdog unwind point
    if (cfg.abortPollAccesses)
        rt.setAbortPollInterval(cfg.abortPollAccesses);

    // Run-level derived stats, computed at snapshot time. Sliced runs
    // carry one Doppelgänger engine per slice; occupancy is the
    // whole-LLC ratio over all of them (identical to the single-engine
    // value when there is exactly one).
    StatGroup runGroup = statReg.group("run");
    runGroup.counterFn(
        "runtimeCycles", [&rt] { return rt.runtime(); },
        "slowest core's cycles");
    runGroup.formula(
        "tagsPerDataEntry",
        [dopps = built.dopps] {
            u64 tags = 0;
            u64 entries = 0;
            for (const DoppEngine *d : dopps) {
                tags += d->tagCount();
                entries += d->dataCount();
            }
            return entries ? static_cast<double>(tags) /
                    static_cast<double>(entries)
                           : 0.0;
        },
        "end-of-run occupancy: tags per valid data entry");

    if (cfg.snapshotPeriod && cfg.onSnapshot) {
        rt.setPeriodicHook(cfg.snapshotPeriod, [&]() {
            cfg.onSnapshot(captureSnapshot(*llc, registry));
        });
    }

    std::unique_ptr<TraceWriter> tracer;
    if (!cfg.tracePath.empty()) {
        tracer = std::make_unique<TraceWriter>(cfg.tracePath);
        rt.accessHook = [&](Addr a, bool is_write, unsigned size,
                            u64 payload) {
            TraceRecord rec;
            rec.addr = a;
            rec.payload = payload;
            rec.core = static_cast<u8>(rt.core());
            rec.size = static_cast<u8>(size);
            rec.isWrite = is_write ? 1 : 0;
            tracer->append(rec);
        };
    }

    auto workload = makeWorkload(workload_name, cfg.workload);
    workload->run(rt);
    if (tracer)
        tracer->close();

    // Guarantee at least one snapshot per run, whatever the period.
    if (cfg.snapshotPeriod && cfg.onSnapshot)
        cfg.onSnapshot(captureSnapshot(*llc, registry));

    RunResult r;
    r.workload = workload_name;
    r.organization = cfg.llcName;
    r.output = workload->output();
    r.stats = statReg.snapshot();
    r.doppConfig = built.doppConfig;
    if (injector)
        r.faultTrace = injector->events();
    if (guard)
        r.degradedIntervals = guard->intervals();
    maybeAppendStatsJson(r);
    return r;
}

} // namespace dopp
