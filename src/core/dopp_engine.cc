#include "dopp_engine.hh"

#include <algorithm>

#include "core/doppelganger_cache.hh"
#include "util/logging.hh"

namespace dopp
{

DoppEngine::DoppEngine(MainMemory &memory, const DoppConfig &config,
                       const ApproxRegistry *registry,
                       StatRegistry *stat_registry,
                       const std::string &stat_group)
    : LastLevelCache(memory, stat_registry, stat_group), cfg(config),
      registry(registry),
      hasMapOverride(config.mapOverride != nullptr)
{
    if (config.tagEntries % config.tagWays != 0 ||
        config.dataEntries % config.dataWays != 0) {
        fatal("doppelganger: entries must be a multiple of ways");
    }
    defaultParams.mapBits = cfg.mapBits;
    defaultParams.type = cfg.defaultType;
    defaultParams.minValue = cfg.defaultMin;
    defaultParams.maxValue = cfg.defaultMax;
    if (config.dataEntries > config.tagEntries)
        warn("doppelganger: data array larger than tag array");
}

void
DoppEngine::buildParamCache() const
{
    paramCache.clear();
    for (const ApproxRegion &r : registry->regions()) {
        CachedRegion c;
        c.base = r.base;
        c.end = r.base + r.size;
        c.params.mapBits = cfg.mapBits;
        c.params.type = r.type;
        c.params.minValue = r.minValue;
        c.params.maxValue = r.maxValue;
        paramCache.push_back(c);
    }
    hotParam = -1;
    paramGen = registry->generation();
    paramsCached = true;
}

MapParams
DoppEngine::paramsFor(Addr addr) const
{
    if (!registry)
        return defaultParams;
    if (!paramsCached) {
        // Lazy: the LLC is built before workloads annotate their
        // regions, so the first access — not construction — sees the
        // final registry.
        buildParamCache();
    } else {
        DOPP_ASSERT(paramGen == registry->generation() &&
                    "approx registry mutated after run start");
    }

    if (hotParam >= 0) {
        const CachedRegion &hot =
            paramCache[static_cast<size_t>(hotParam)];
        if (addr >= hot.base && addr < hot.end)
            return hot.params;
    }

    // Binary search mirroring ApproxRegistry::find: last region whose
    // base is <= addr, if it spans addr.
    const auto it = std::upper_bound(
        paramCache.begin(), paramCache.end(), addr,
        [](Addr a, const CachedRegion &c) { return a < c.base; });
    if (it != paramCache.begin()) {
        const auto cand = std::prev(it);
        if (addr >= cand->base && addr < cand->end) {
            hotParam = static_cast<i32>(cand - paramCache.begin());
            return cand->params;
        }
    }
    return defaultParams;
}

std::unique_ptr<DoppEngine>
makeDoppEngine(MainMemory &memory, const DoppConfig &config,
               const ApproxRegistry *registry,
               StatRegistry *stat_registry,
               const std::string &stat_group)
{
    return std::make_unique<DoppelgangerCache>(
        memory, config, registry, stat_registry, stat_group);
}

} // namespace dopp
