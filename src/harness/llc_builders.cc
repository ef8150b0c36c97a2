/**
 * @file
 * Builders of the eight built-in LLC organizations. Each builder
 * constructs its organization against the run's StatRegistry under
 * the group path the factory hands it ("llc" for a direct build,
 * "llc.sliceN" per slice of a sliced build): organizations whose
 * counters live directly under the group (baseline, bdi, gdish,
 * dedup, approxDedup) add the derived formulas there; organizations
 * whose counters live in subgroups (split, uniDoppelgänger,
 * uniDoppBdi) expose an aggregate whole-LLC view under the group
 * instead. The five engine-backed organizations build their
 * Doppelgänger engine with the DoppEngineMaker they are registered
 * with: split and uniDoppBdi wrap one, while uniDoppelgänger, dedup
 * and approxDedup are one (the dedup pair with a content map as
 * DoppConfig::mapOverride).
 */

#include <algorithm>

#include "compress/bdi_llc.hh"
#include "compress/dedup.hh"
#include "compress/gdish.hh"
#include "compress/uni_dopp_bdi.hh"
#include "harness/experiment.hh"
#include "harness/llc_factory.hh"

namespace dopp
{

namespace
{

LlcBuilt
buildBaseline(MainMemory &memory, const ApproxRegistry &registry,
              const RunConfig &cfg, StatRegistry &stats,
              const std::string &group, DoppEngineMaker)
{
    LlcBuilt built;
    auto ptr = std::make_unique<ConventionalLlc>(
        memory, cfg.baselineBytes, cfg.llcWays, cfg.llcLatency,
        &registry, ReplPolicy::LRU, &stats, group);
    registerLlcFormulas(stats.group(group),
                        [llc = ptr.get()] { return llc->stats(); });
    built.llc = std::move(ptr);
    return built;
}

LlcBuilt
buildSplitDopp(MainMemory &memory, const ApproxRegistry &registry,
               const RunConfig &cfg, StatRegistry &stats,
               const std::string &group, DoppEngineMaker make_engine)
{
    SplitLlcConfig sc;
    sc.preciseBytes = cfg.baselineBytes / 2;
    sc.preciseWays = cfg.llcWays;
    sc.preciseLatency = cfg.llcLatency;
    sc.dopp = splitDoppConfig(cfg);

    LlcBuilt built;
    built.doppConfig = sc.dopp;
    auto ptr = std::make_unique<SplitLlc>(memory, sc, registry, &stats,
                                          group, make_engine);
    built.dopps = {&ptr->doppelganger()};
    built.llc = std::move(ptr);
    return built;
}

LlcBuilt
buildUniDopp(MainMemory &memory, const ApproxRegistry &registry,
             const RunConfig &cfg, StatRegistry &stats,
             const std::string &group, DoppEngineMaker make_engine)
{
    LlcBuilt built;
    built.doppConfig = uniDoppConfig(cfg);
    auto ptr = make_engine(memory, built.doppConfig, &registry, &stats,
                           group + ".dopp");
    built.dopps = {ptr.get()};
    registerLlcStatsView(stats.group(group),
                         [llc = ptr.get()] { return llc->stats(); });
    built.llc = std::move(ptr);
    return built;
}

LlcBuilt
buildBdi(MainMemory &memory, const ApproxRegistry &registry,
         const RunConfig &cfg, StatRegistry &stats,
         const std::string &group, DoppEngineMaker)
{
    BdiLlcConfig bc;
    bc.sizeBytes = cfg.baselineBytes;
    bc.ways = cfg.llcWays;
    bc.hitLatency = cfg.llcLatency;

    LlcBuilt built;
    auto ptr =
        std::make_unique<BdiLlc>(memory, bc, &registry, &stats, group);
    registerLlcFormulas(stats.group(group),
                        [llc = ptr.get()] { return llc->stats(); });
    built.llc = std::move(ptr);
    return built;
}

/** The engine of a dedup organization: the baseline's tag geometry,
 * a dataFraction data array and the map function @p map. Neither
 * organization reads the RunConfig's Doppelgänger knobs, so unlike
 * doppConfigFor every other field keeps its DoppConfig default. */
DoppConfig
dedupEngineConfig(const RunConfig &cfg, MapOverrideFn map)
{
    DoppConfig dc;
    dc.tagEntries = static_cast<u32>(cfg.baselineBytes / blockBytes);
    dc.tagWays = cfg.llcWays;
    dc.dataEntries = static_cast<u32>(
        static_cast<double>(dc.tagEntries) * cfg.dataFraction);
    dc.dataWays = cfg.llcWays;
    dc.hitLatency = cfg.llcLatency;
    dc.mapOverride = map;
    return dc;
}

/** A dedup organization is its engine, registered under the group
 * itself. LlcBuilt::dopps stays empty, so the run's tagsPerDataEntry
 * stat reads 0 for dedup and approxDedup. */
LlcBuilt
buildDedupEngine(MainMemory &memory, const DoppConfig &dc,
                 const ApproxRegistry *registry, StatRegistry &stats,
                 const std::string &group, DoppEngineMaker make_engine)
{
    LlcBuilt built;
    auto ptr = make_engine(memory, dc, registry, &stats, group);
    registerLlcFormulas(stats.group(group),
                        [llc = ptr.get()] { return llc->stats(); });
    built.llc = std::move(ptr);
    return built;
}

LlcBuilt
buildDedup(MainMemory &memory, const ApproxRegistry &,
           const RunConfig &cfg, StatRegistry &stats,
           const std::string &group, DoppEngineMaker make_engine)
{
    // A content hash reads no annotation: no registry.
    return buildDedupEngine(memory,
                            dedupEngineConfig(cfg, dedupContentHash),
                            nullptr, stats, group, make_engine);
}

LlcBuilt
buildUniDoppBdi(MainMemory &memory, const ApproxRegistry &registry,
                const RunConfig &cfg, StatRegistry &stats,
                const std::string &group, DoppEngineMaker make_engine)
{
    DoppConfig dc = uniDoppConfig(cfg);
    // B∆I-compressed entries let the same data-array silicon carry
    // ~2× the entries (uniDoppBdiExpansion); never more than one
    // entry per tag, which is where sharing stops paying at all.
    dc.dataEntries = std::min(
        dc.tagEntries, dc.dataEntries * uniDoppBdiExpansion);
    dc.hitLatency += 1; // decompression, like BdiLlc

    LlcBuilt built;
    built.doppConfig = dc;
    auto ptr = std::make_unique<UniDoppBdiLlc>(memory, dc, &registry,
                                               &stats, group, make_engine);
    built.dopps = {&ptr->inner()};
    registerLlcStatsView(stats.group(group),
                         [llc = ptr.get()] { return llc->stats(); });
    built.llc = std::move(ptr);
    return built;
}

LlcBuilt
buildGdish(MainMemory &memory, const ApproxRegistry &registry,
           const RunConfig &cfg, StatRegistry &stats,
           const std::string &group, DoppEngineMaker)
{
    GdishLlcConfig gc;
    gc.sizeBytes = cfg.baselineBytes;
    gc.ways = cfg.llcWays;
    gc.hitLatency = cfg.llcLatency;

    LlcBuilt built;
    auto ptr = std::make_unique<GdishLlc>(memory, gc, &registry,
                                          &stats, group);
    registerLlcFormulas(stats.group(group),
                        [llc = ptr.get()] { return llc->stats(); });
    built.llc = std::move(ptr);
    return built;
}

LlcBuilt
buildApproxDedup(MainMemory &memory, const ApproxRegistry &registry,
                 const RunConfig &cfg, StatRegistry &stats,
                 const std::string &group, DoppEngineMaker make_engine)
{
    DoppConfig dc = dedupEngineConfig(cfg, approxDedupSignature);
    dc.mapBits = cfg.mapBits; // tolerance knob: 2^⌈mapBits/2⌉ cells
    // The signature depends on the region annotations (type, declared
    // range), so the engine resolves MapParams from the registry.
    return buildDedupEngine(memory, dc, &registry, stats, group,
                            make_engine);
}

/** The built-ins in registration order, which registeredLlcNames()
 * and every sweep over it (bench_fig_slices) follow. */
const struct
{
    const char *name;
    LlcBuilt (*build)(MainMemory &, const ApproxRegistry &,
                      const RunConfig &, StatRegistry &,
                      const std::string &, DoppEngineMaker);
    bool wrapsEngine;
} builtins[] = {
    {"baseline", buildBaseline, false},
    {"split-doppelganger", buildSplitDopp, true},
    {"uniDoppelganger", buildUniDopp, true},
    {"dedup", buildDedup, true},
    {"bdi", buildBdi, false},
    {"uniDoppBdi", buildUniDoppBdi, true},
    {"gdish", buildGdish, false},
    {"approxDedup", buildApproxDedup, true},
};

void
registerBuiltins(const std::string &suffix, DoppEngineMaker maker,
                 bool engines_only)
{
    for (const auto &b : builtins) {
        if (engines_only && !b.wrapsEngine)
            continue;
        registerLlc(b.name + suffix, [build = b.build, maker](auto &...a) {
            return build(a..., maker);
        });
    }
}

} // namespace

void
registerDoppEngineLlcs(const std::string &suffix, DoppEngineMaker maker)
{
    registerBuiltins(suffix, maker, true);
}

void
registerBuiltinLlcs()
{
    static const bool once = [] {
        registerBuiltins("", makeDoppEngine, false);
        return true;
    }();
    (void)once;
}

} // namespace dopp
