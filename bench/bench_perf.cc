/**
 * @file
 * Simulator-throughput harness seeding the repository's benchmark
 * trajectory. Three sections:
 *
 *  1. *Map kernels*: maps/sec per element type for the monomorphized
 *     kernel path (computeMapComponents) and the generic per-element
 *     reference path (computeMapComponentsGeneric), plus the speedup
 *     ratio between them.
 *  2. *LLC organizations*: accesses/sec and maps/sec for every
 *     registered organization, driven by a synthetic fetch/writeback
 *     stream over an annotated F32 region.
 *  3. *Memory tier*: raw MainMemory accesses/sec for the legacy flat
 *     model vs tiered configurations (per-partition routing, fault
 *     draws, write buffer), guarding the tier against hot-path
 *     regressions. Throughput numbers are report-only.
 *
 * Results print as text tables and are written to BENCH_perf.json
 * (schema "dopp-bench-perf-v4") via the crash-safe atomicWriteFile.
 * Each organization row carries a per-phase hot-path breakdown
 * (tag probe / MTag probe / list maintenance / data array, in ns)
 * from a second instrumented pass with a HotPathProfile attached;
 * the throughput numbers come from the uninstrumented first pass.
 *
 * Usage: bench_perf [--smoke] [--out PATH]
 *   --smoke (or DOPP_PERF_SMOKE=1)  tiny iteration counts for CI;
 *                                   numbers are meaningless, but the
 *                                   JSON schema is fully exercised
 *   --out PATH (or DOPP_PERF_OUT)   output path (default
 *                                   BENCH_perf.json)
 */

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "core/map_function.hh"
#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "harness/report.hh"
#include "util/env.hh"
#include "util/fileio.hh"
#include "util/logging.hh"
#include "util/random.hh"

using namespace dopp;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Pool of random blocks so the timed loop sees varied data instead
 * of one cache-resident pattern. */
std::vector<BlockData>
randomBlocks(size_t count, u32 seed)
{
    Rng rng(seed);
    std::vector<BlockData> pool(count);
    for (auto &block : pool)
        for (auto &byte : block)
            byte = static_cast<u8>(rng.below(256));
    return pool;
}

struct KernelResult
{
    ElemType type;
    double kernelMapsPerSec;
    double genericMapsPerSec;
};

/** Time @p maps map generations over @p pool through @p fn. */
template <typename Fn>
double
timeMaps(const std::vector<BlockData> &pool, const MapParams &params,
         u64 maps, Fn fn)
{
    u64 sink = 0;
    size_t i = 0;
    const auto start = Clock::now();
    for (u64 n = 0; n < maps; ++n) {
        sink += fn(pool[i].data(), params);
        if (++i == pool.size())
            i = 0;
    }
    const double elapsed = secondsSince(start);
    // The sink keeps the loop observable without volatile tricks.
    if (sink == 0x6e6f6e7a65726f)
        std::fprintf(stderr, "sink\n");
    return static_cast<double>(maps) / std::max(elapsed, 1e-9);
}

KernelResult
benchKernel(ElemType type, u64 maps)
{
    MapParams params;
    params.mapBits = 14;
    params.type = type;
    params.minValue = 0.0;
    params.maxValue = 255.0;
    const auto pool = randomBlocks(256, 0xD0BB + static_cast<u32>(type));

    KernelResult r;
    r.type = type;
    r.kernelMapsPerSec = timeMaps(
        pool, params, maps, [](const u8 *b, const MapParams &p) {
            return computeMapComponents(b, p).combined;
        });
    r.genericMapsPerSec = timeMaps(
        pool, params, maps, [](const u8 *b, const MapParams &p) {
            return computeMapComponentsGeneric(b, p).combined;
        });
    return r;
}

struct OrgResult
{
    std::string name;
    double accessesPerSec;
    double mapsPerSec;

    /** Per-phase hot-path breakdown from a second, instrumented pass
     * (sim/llc.hh HotPathProfile); the throughput numbers above come
     * from the uninstrumented pass and pay none of this timing. */
    u64 tagProbeNs = 0;
    u64 mtagProbeNs = 0;
    u64 listMaintNs = 0;
    u64 dataArrayNs = 0;
};

constexpr u64 footprintBlocks = 8192;

/** Annotate and seed the synthetic F32 region every LLC bench drives;
 * returns the Rng mid-stream so the access loop continues the same
 * deterministic sequence benchOrg always used. */
Rng
seedPerfRegion(MainMemory &mem, ApproxRegistry &registry)
{
    ApproxRegion region;
    region.base = 0;
    region.size = footprintBlocks * blockBytes;
    region.type = ElemType::F32;
    region.minValue = 0.0;
    region.maxValue = 1.0;
    region.name = "perf";
    registry.add(region);

    // Seed memory with in-range values so maps are realistic.
    Rng rng(0xBEEF);
    BlockData block;
    for (u64 b = 0; b < footprintBlocks; ++b) {
        for (unsigned e = 0; e < elemsPerBlock(ElemType::F32); ++e) {
            setBlockElement(block.data(), ElemType::F32, e,
                            rng.below(1000) / 1000.0);
        }
        mem.writeBlock(b * blockBytes, block.data());
    }
    return rng;
}

/**
 * Drive one organization with a deterministic fetch/writeback mix
 * over an annotated F32 region (every 4th access is a writeback of
 * fresh values, forcing map regeneration on the Doppelgänger paths).
 */
OrgResult
benchOrg(const std::string &name, u64 accesses)
{
    MainMemory mem;
    ApproxRegistry registry;
    Rng rng = seedPerfRegion(mem, registry);

    RunConfig cfg;
    cfg.workloadName = "perf-synthetic";
    StatRegistry stats;
    LlcBuilt built = buildLlc(name, mem, registry, cfg, stats);

    BlockData buf;
    const auto start = Clock::now();
    for (u64 n = 0; n < accesses; ++n) {
        const Addr addr = (rng.below(footprintBlocks)) * blockBytes;
        if (n % 4 == 3) {
            setBlockElement(buf.data(), ElemType::F32,
                            static_cast<unsigned>(n % 16),
                            rng.below(1000) / 1000.0);
            built.llc->writeback(addr, buf.data());
        } else {
            built.llc->fetch(addr, buf.data());
        }
    }
    const double elapsed = std::max(secondsSince(start), 1e-9);

    OrgResult r;
    r.name = name;
    r.accessesPerSec = static_cast<double>(accesses) / elapsed;
    r.mapsPerSec =
        static_cast<double>(built.llc->stats().mapGens) / elapsed;

    // Second, instrumented pass: attach a HotPathProfile and replay a
    // quarter of the stream so the report can break the access cost
    // into tag probe / MTag probe / list maintenance / data array.
    HotPathProfile profile;
    built.llc->setHotPathProfile(&profile);
    for (u64 n = 0; n < accesses / 4; ++n) {
        const Addr addr = (rng.below(footprintBlocks)) * blockBytes;
        if (n % 4 == 3) {
            setBlockElement(buf.data(), ElemType::F32,
                            static_cast<unsigned>(n % 16),
                            rng.below(1000) / 1000.0);
            built.llc->writeback(addr, buf.data());
        } else {
            built.llc->fetch(addr, buf.data());
        }
    }
    built.llc->setHotPathProfile(nullptr);
    r.tagProbeNs = profile.tagProbeNs;
    r.mtagProbeNs = profile.mtagProbeNs;
    r.listMaintNs = profile.listMaintNs;
    r.dataArrayNs = profile.dataArrayNs;
    return r;
}

struct MemResult
{
    std::string name;
    double accessesPerSec;
};

/**
 * Drive MainMemory directly with a 3:1 read/write block mix over a
 * region routed per @p tier (annotated pages approximate when the
 * tier has approximate partitions).
 */
MemResult
benchMemTier(const std::string &label, const MemTierConfig &tier,
             u64 accesses)
{
    MainMemory mem = tier.enabled() ? MainMemory(tier) : MainMemory();
    FaultConfig fc;
    FaultInjector fi(fc);
    if (tier.enabled()) {
        mem.setFaultInjector(&fi);
        mem.routeApprox(0, 4096 * blockBytes);
    }

    Rng rng(0xF00D);
    BlockData buf = {};
    const auto start = Clock::now();
    for (u64 n = 0; n < accesses; ++n) {
        const Addr addr = rng.below(8192) * blockBytes;
        if (n % 4 == 3)
            mem.writeBlock(addr, buf.data());
        else
            mem.readBlock(addr, buf.data());
    }
    const double elapsed = std::max(secondsSince(start), 1e-9);

    MemResult r;
    r.name = label;
    r.accessesPerSec = static_cast<double>(accesses) / elapsed;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = envFlag("DOPP_PERF_SMOKE", false);
    const char *envOut = std::getenv("DOPP_PERF_OUT");
    std::string outPath =
        envOut && *envOut ? envOut : "BENCH_perf.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--out PATH]\n", argv[0]);
            return 2;
        }
    }

    const u64 kernelMaps = smoke ? 20000 : 2000000;
    const u64 orgAccesses = smoke ? 10000 : 400000;
    const u64 memAccesses = smoke ? 20000 : 2000000;

    const ElemType types[] = {ElemType::U8, ElemType::I16,
                              ElemType::I32, ElemType::F32,
                              ElemType::F64};
    std::vector<KernelResult> kernels;
    for (ElemType t : types)
        kernels.push_back(benchKernel(t, kernelMaps));

    registerBuiltinLlcs();
    std::vector<OrgResult> orgs;
    for (const std::string &name : registeredLlcNames())
        orgs.push_back(benchOrg(name, orgAccesses));

    std::vector<MemResult> mems;
    mems.push_back(
        benchMemTier("flat-dram", MemTierConfig{}, memAccesses));
    mems.push_back(benchMemTier("tiered-faultless",
                                defaultMemTier(0.0, 0.0),
                                memAccesses));
    mems.push_back(benchMemTier("tiered-faulty",
                                defaultMemTier(1e-4, 1e-4),
                                memAccesses));

    TextTable kt;
    kt.header({"type", "kernel maps/s", "generic maps/s", "speedup"});
    for (const KernelResult &k : kernels) {
        kt.row({elemTypeName(k.type),
                strfmt("%.3g", k.kernelMapsPerSec),
                strfmt("%.3g", k.genericMapsPerSec),
                times(k.kernelMapsPerSec /
                      std::max(k.genericMapsPerSec, 1e-9))});
    }
    kt.print("Map-kernel throughput");

    TextTable ot;
    ot.header({"organization", "accesses/s", "maps/s", "tagProbe ns",
               "mtagProbe ns", "listMaint ns", "dataArray ns"});
    for (const OrgResult &o : orgs) {
        ot.row({o.name, strfmt("%.3g", o.accessesPerSec),
                strfmt("%.3g", o.mapsPerSec),
                strfmt("%llu",
                       static_cast<unsigned long long>(o.tagProbeNs)),
                strfmt("%llu",
                       static_cast<unsigned long long>(o.mtagProbeNs)),
                strfmt("%llu",
                       static_cast<unsigned long long>(o.listMaintNs)),
                strfmt("%llu",
                       static_cast<unsigned long long>(
                           o.dataArrayNs))});
    }
    ot.print("LLC organization throughput (phase ns: instrumented "
             "pass, report-only)");

    TextTable mt;
    mt.header({"config", "accesses/s"});
    for (const MemResult &m : mems)
        mt.row({m.name, strfmt("%.3g", m.accessesPerSec)});
    mt.print("Memory-tier throughput");

    std::string json = "{\n  \"schema\": \"dopp-bench-perf-v4\",\n";
    json += strfmt("  \"smoke\": %s,\n", smoke ? "true" : "false");
    json += strfmt("  \"kernelMaps\": %llu,\n",
                   static_cast<unsigned long long>(kernelMaps));
    json += strfmt("  \"orgAccesses\": %llu,\n",
                   static_cast<unsigned long long>(orgAccesses));
    json += strfmt("  \"memAccesses\": %llu,\n",
                   static_cast<unsigned long long>(memAccesses));
    json += "  \"mapKernels\": [\n";
    for (size_t i = 0; i < kernels.size(); ++i) {
        const KernelResult &k = kernels[i];
        json += strfmt(
            "    {\"type\": \"%s\", \"kernelMapsPerSec\": %.6g, "
            "\"genericMapsPerSec\": %.6g, \"speedup\": %.4g}%s\n",
            elemTypeName(k.type), k.kernelMapsPerSec,
            k.genericMapsPerSec,
            k.kernelMapsPerSec / std::max(k.genericMapsPerSec, 1e-9),
            i + 1 < kernels.size() ? "," : "");
    }
    json += "  ],\n  \"organizations\": [\n";
    for (size_t i = 0; i < orgs.size(); ++i) {
        const OrgResult &o = orgs[i];
        json += strfmt(
            "    {\"organization\": \"%s\", \"accessesPerSec\": %.6g, "
            "\"mapsPerSec\": %.6g, \"tagProbeNs\": %llu, "
            "\"mtagProbeNs\": %llu, \"listMaintNs\": %llu, "
            "\"dataArrayNs\": %llu}%s\n",
            o.name.c_str(), o.accessesPerSec, o.mapsPerSec,
            static_cast<unsigned long long>(o.tagProbeNs),
            static_cast<unsigned long long>(o.mtagProbeNs),
            static_cast<unsigned long long>(o.listMaintNs),
            static_cast<unsigned long long>(o.dataArrayNs),
            i + 1 < orgs.size() ? "," : "");
    }
    json += "  ],\n  \"memoryTier\": [\n";
    for (size_t i = 0; i < mems.size(); ++i) {
        const MemResult &m = mems[i];
        json += strfmt(
            "    {\"config\": \"%s\", \"accessesPerSec\": %.6g}%s\n",
            m.name.c_str(), m.accessesPerSec,
            i + 1 < mems.size() ? "," : "");
    }
    json += "  ]\n}\n";

    atomicWriteFile(outPath, json);
    std::printf("wrote %s\n", outPath.c_str());
    return 0;
}
