#include "sweeps.hh"

#include <cstring>

#include "sim/mem_tier.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace dopp;

namespace
{

RunConfig
baseRun(const std::string &kernel, const std::string &org, double scale,
        u64 seed)
{
    RunConfig cfg;
    cfg.workloadName = kernel;
    cfg.llcName = org;
    cfg.workload.scale = scale;
    cfg.workload.seed = seed;
    return cfg;
}

/** Paper's Fig 12 sweep: every kernel on the three organizations the
 * ROADMAP series tracks. Working sets mostly fit the 2 MB LLC. */
Sweep
fig12Grid(u64 seed)
{
    Sweep s{"fig12-grid", 1.0, {}};
    for (const std::string &kernel : workloadNames()) {
        for (const char *org :
             {"baseline", "split-doppelganger", "uniDoppelganger"})
            s.runs.push_back(baseRun(kernel, org, s.scale, seed));
    }
    return s;
}

/** Footprints that overflow the LLC: the miss path of every
 * approximate organization. Ferret sends no writebacks, inversek2j
 * one per three L2 misses, so fetch and writeback paths both run. */
Sweep
missBound(u64 seed)
{
    Sweep s{"miss-bound", 2.0, {}};
    for (const char *kernel : {"ferret", "inversek2j"}) {
        for (const char *org :
             {"split-doppelganger", "uniDoppelganger", "dedup", "bdi",
              "uniDoppBdi", "gdish", "approxDedup"})
            s.runs.push_back(baseRun(kernel, org, s.scale, seed));
    }
    return s;
}

/** bench_fig_memtier's both+guard on a 4-slice Sandy Bridge LLC with
 * LLC fault injection: the routed memory path, slice routing and the
 * fault/guardrail hooks run on every access. */
Sweep
tieredWrites(u64 seed)
{
    Sweep s{"tiered-writes", 2.0, {}};
    for (const char *kernel : {"swaptions", "canneal", "fluidanimate"}) {
        for (const char *org : {"split-doppelganger", "uniDoppelganger"}) {
            RunConfig cfg = baseRun(kernel, org, s.scale, seed);
            cfg.sliceCount = 4;
            cfg.sliceHash = "sandybridge";
            cfg.memTier = defaultMemTier(1e-5, 1e-4);
            cfg.fault.seed = seed;
            cfg.fault.dataRate = 1e-4;
            cfg.fault.tagMetaRate = 1e-4;
            cfg.fault.mtagMetaRate = 1e-4;
            cfg.qor.budget = 0.002;
            cfg.qor.migrateFactor = 1.5;
            s.runs.push_back(std::move(cfg));
        }
    }
    return s;
}

} // namespace

const std::vector<std::string> &
sweepNames()
{
    static const std::vector<std::string> names = {
        "fig12-grid", "miss-bound", "tiered-writes"};
    return names;
}

Sweep
makeSweep(const std::string &name, u64 seed)
{
    if (name == "fig12-grid")
        return fig12Grid(seed);
    if (name == "miss-bound")
        return missBound(seed);
    if (name == "tiered-writes")
        return tieredWrites(seed);
    fatal("unknown benchmark workload '%s' (known: fig12-grid, "
          "miss-bound, tiered-writes)", name.c_str());
}

std::string
runLabel(const RunConfig &cfg)
{
    return cfg.workloadName + "/" + cfg.llcName;
}

u64
resultDigest(const StatSnapshot &stats, const std::vector<double> &output)
{
    u64 h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void *p, size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    };
    const std::string json = stats.json();
    mix(json.data(), json.size());
    for (double v : output) {
        u64 bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(&bits, sizeof(bits));
    }
    return h;
}

} // namespace perfbench
