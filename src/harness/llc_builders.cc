/**
 * @file
 * Builders of the five built-in LLC organizations. Each builder
 * constructs its organization against the run's StatRegistry under
 * the group path the factory hands it ("llc" for a direct build,
 * "llc.sliceN" per slice of a sliced build): organizations whose
 * counters live directly under the group (baseline, bdi, dedup) add
 * the derived formulas there; organizations whose counters live in
 * subgroups (split, uniDoppelgänger) expose an aggregate whole-LLC
 * view under the group instead.
 */

#include <algorithm>

#include "compress/approx_dedup.hh"
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
              const std::string &group)
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
               const std::string &group)
{
    SplitLlcConfig sc;
    sc.preciseBytes = cfg.baselineBytes / 2;
    sc.preciseWays = cfg.llcWays;
    sc.preciseLatency = cfg.llcLatency;
    sc.dopp = splitDoppConfig(cfg);

    LlcBuilt built;
    built.doppConfig = sc.dopp;
    auto ptr =
        std::make_unique<SplitLlc>(memory, sc, registry, &stats, group);
    built.dopps = {&ptr->doppelganger()};
    built.llc = std::move(ptr);
    return built;
}

LlcBuilt
buildUniDopp(MainMemory &memory, const ApproxRegistry &registry,
             const RunConfig &cfg, StatRegistry &stats,
             const std::string &group)
{
    LlcBuilt built;
    built.doppConfig = uniDoppConfig(cfg);
    auto ptr = makeDoppEngine(memory, built.doppConfig, &registry,
                              &stats, group + ".dopp");
    built.dopps = {ptr.get()};
    registerLlcStatsView(stats.group(group),
                         [llc = ptr.get()] { return llc->stats(); });
    built.llc = std::move(ptr);
    return built;
}

LlcBuilt
buildBdi(MainMemory &memory, const ApproxRegistry &registry,
         const RunConfig &cfg, StatRegistry &stats,
         const std::string &group)
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

LlcBuilt
buildDedup(MainMemory &memory, const ApproxRegistry &,
           const RunConfig &cfg, StatRegistry &stats,
           const std::string &group)
{
    DedupConfig dc;
    dc.tagEntries = static_cast<u32>(cfg.baselineBytes / blockBytes);
    dc.tagWays = cfg.llcWays;
    dc.dataEntries = static_cast<u32>(
        static_cast<double>(dc.tagEntries) * cfg.dataFraction);
    dc.dataWays = cfg.llcWays;
    dc.hitLatency = cfg.llcLatency;
    // Same engine-selection rule as the Doppelgänger organizations so
    // the differential suite can flip all five builders at once.
    dc.referenceImpl = splitDoppConfig(cfg).referenceImpl;

    LlcBuilt built;
    auto ptr = std::make_unique<DedupLlc>(memory, dc, &stats, group);
    registerLlcFormulas(stats.group(group),
                        [llc = ptr.get()] { return llc->stats(); });
    built.llc = std::move(ptr);
    return built;
}

LlcBuilt
buildUniDoppBdi(MainMemory &memory, const ApproxRegistry &registry,
                const RunConfig &cfg, StatRegistry &stats,
                const std::string &group)
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
                                               &stats, group);
    built.dopps = {&ptr->inner()};
    registerLlcStatsView(stats.group(group),
                         [llc = ptr.get()] { return llc->stats(); });
    built.llc = std::move(ptr);
    return built;
}

LlcBuilt
buildGdish(MainMemory &memory, const ApproxRegistry &registry,
           const RunConfig &cfg, StatRegistry &stats,
           const std::string &group)
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
                 const std::string &group)
{
    ApproxDedupConfig ac;
    ac.tagEntries = static_cast<u32>(cfg.baselineBytes / blockBytes);
    ac.tagWays = cfg.llcWays;
    ac.dataEntries = static_cast<u32>(
        static_cast<double>(ac.tagEntries) * cfg.dataFraction);
    ac.dataWays = cfg.llcWays;
    ac.mapBits = cfg.mapBits; // tolerance knob: 2^⌈mapBits/2⌉ cells
    ac.hitLatency = cfg.llcLatency;
    ac.referenceImpl = splitDoppConfig(cfg).referenceImpl;

    LlcBuilt built;
    auto ptr = std::make_unique<ApproxDedupLlc>(memory, ac, &registry,
                                                &stats, group);
    registerLlcFormulas(stats.group(group),
                        [llc = ptr.get()] { return llc->stats(); });
    built.llc = std::move(ptr);
    return built;
}

} // namespace

void
registerBuiltinLlcs()
{
    static const bool once = [] {
        registerLlc("baseline", buildBaseline);
        registerLlc("split-doppelganger", buildSplitDopp);
        registerLlc("uniDoppelganger", buildUniDopp);
        registerLlc("dedup", buildDedup);
        registerLlc("bdi", buildBdi);
        registerLlc("uniDoppBdi", buildUniDoppBdi);
        registerLlc("gdish", buildGdish);
        registerLlc("approxDedup", buildApproxDedup);
        return true;
    }();
    (void)once;
}

} // namespace dopp
