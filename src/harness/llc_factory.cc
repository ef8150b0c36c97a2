#include "llc_factory.hh"

#include <bit>
#include <unordered_map>
#include <utility>

#include "harness/experiment.hh"
#include "sim/sliced_llc.hh"
#include "util/logging.hh"

namespace dopp
{

namespace
{

struct Factory
{
    std::unordered_map<std::string, LlcBuilder> builders;
    std::vector<std::string> order; ///< registration order
};

/** Bare registration storage. registerLlc() writes here directly so
 * registerBuiltinLlcs() can run while a lookup is ensuring the
 * built-ins (no re-entrant static initialization). */
Factory &
storage()
{
    static Factory f;
    return f;
}

/** Lookups go through here: built-ins register on first use, so a
 * static-archive link cannot drop them as unreferenced objects. */
Factory &
factory()
{
    registerBuiltinLlcs();
    return storage();
}

/** @p built, after checking the builder returned an LLC. */
LlcBuilt
checkedBuild(LlcBuilt built, const std::string &name)
{
    if (!built.llc)
        fatal("llc factory: builder '%s' returned no LLC",
              name.c_str());
    return built;
}

} // namespace

void
registerLlc(const std::string &name, LlcBuilder builder)
{
    if (name.empty())
        fatal("llc factory: empty organization name");
    if (!builder)
        fatal("llc factory: null builder for '%s'", name.c_str());
    Factory &f = storage();
    auto [it, inserted] = f.builders.emplace(name, std::move(builder));
    if (!inserted) {
        fatal("llc factory: organization '%s' registered twice",
              name.c_str());
    }
    f.order.push_back(name);
}

bool
llcRegistered(const std::string &name)
{
    Factory &f = factory();
    return f.builders.find(name) != f.builders.end();
}

std::vector<std::string>
registeredLlcNames()
{
    return factory().order;
}

LlcBuilt
buildLlc(const std::string &name, MainMemory &memory,
         const ApproxRegistry &registry, const RunConfig &cfg,
         StatRegistry &stats)
{
    Factory &f = factory();
    auto it = f.builders.find(name);
    if (it == f.builders.end()) {
        std::string known;
        for (const std::string &n : f.order) {
            if (!known.empty())
                known += ", ";
            known += n;
        }
        fatal("llc factory: unknown organization '%s' (registered: %s)",
              name.c_str(), known.c_str());
    }
    const LlcBuilder &builder = it->second;

    const SliceConfig sc = resolvedSliceConfig(cfg);
    if (sc.count == 0) {
        // Legacy direct build: the organization registers under "llc"
        // itself, exactly as before the sliced front end existed.
        return checkedBuild(
            builder(memory, registry, cfg, stats, "llc"), name);
    }

    // Sliced build: run the same builder once per slice with 1/N of
    // the capacity. Count 1 keeps the slice's counters directly under
    // "llc", so the single-slice layout (and therefore every stat
    // name and value) is bit-identical to the unsliced one.
    RunConfig sliceCfg = cfg;
    sliceCfg.sliceCount = 0; // the slices themselves are not sliced
    sliceCfg.baselineBytes = cfg.baselineBytes / sc.count;
    if (sc.mapSpace == MapSpaceMode::PerSlice) {
        // Partitioned map space: the total map-value budget stays at
        // the unsliced size, so each slice drops log2(N) bits.
        sliceCfg.mapBits = cfg.mapBits - std::countr_zero(sc.count);
    }

    LlcBuilt agg;
    std::vector<std::unique_ptr<LastLevelCache>> slices;
    std::vector<std::string> childGroups;
    slices.reserve(sc.count);
    childGroups.reserve(sc.count);
    for (u32 i = 0; i < sc.count; ++i) {
        const std::string group =
            sc.count == 1 ? "llc" : "llc.slice" + std::to_string(i);
        LlcBuilt b = checkedBuild(
            builder(memory, registry, sliceCfg, stats, group), name);
        if (i == 0)
            agg.doppConfig = b.doppConfig;
        agg.dopps.insert(agg.dopps.end(), b.dopps.begin(),
                         b.dopps.end());
        slices.push_back(std::move(b.llc));
        childGroups.push_back(group);
    }

    auto sliced = std::make_unique<SlicedLlc>(
        memory, std::move(slices), sc.hash, &stats, "llc");
    if (sc.count > 1) {
        // Merged aggregate: every per-slice stat reappears summed
        // under "llc" with exactly the unsliced name set, so report
        // layers keep working unchanged.
        stats.registerGroupMerge("llc", childGroups);
        registerLlcFormulas(
            stats.group("llc"),
            [llc = sliced.get()] { return llc->stats(); });
    }
    agg.llc = std::move(sliced);
    return agg;
}

} // namespace dopp
