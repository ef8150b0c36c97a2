#include "split_llc.hh"

namespace dopp
{

LlcStats
addStats(const LlcStats &a, const LlcStats &b)
{
    // Field-wise over the canonical counter list: a counter added to
    // LlcStats but missing from llcStatFields() trips the size
    // static_assert in llc.cc, so nothing can silently vanish from
    // the aggregated sum (and nothing is ever double-counted).
    LlcStats s;
    for (const LlcStatField &f : llcStatFields())
        f.ref(s) = f.value(a) + f.value(b);
    return s;
}

SplitLlc::SplitLlc(MainMemory &memory, const SplitLlcConfig &config,
                   const ApproxRegistry &registry,
                   StatRegistry *stat_registry,
                   const std::string &stat_group,
                   DoppEngineMaker make_engine)
    : LastLevelCache(memory, stat_registry, stat_group),
      registry(registry),
      preciseLlc(std::make_unique<ConventionalLlc>(
          memory, config.preciseBytes, config.preciseWays,
          config.preciseLatency, &registry, ReplPolicy::LRU,
          &statRegistry(),
          statGroupPath() + ".precise")),
      doppLlc(make_engine(memory, config.dopp, &registry,
                          &statRegistry(), statGroupPath() + ".dopp")),
      degradedFillsCtr(statGroup().group("route").counter(
          "degradedFills",
          "approximate fills routed precise while degraded"))
{
    // Aggregate view: every canonical LlcStats field plus the derived
    // formulas, computed over the sum of both halves and the split's
    // own routing counters.
    registerLlcStatsView(statGroup(), [this] { return stats(); });
}

void
SplitLlc::setBackInvalidate(BackInvalidateFn fn)
{
    preciseLlc->setBackInvalidate(fn);
    doppLlc->setBackInvalidate(fn);
}

LastLevelCache::FetchResult
SplitLlc::fetch(Addr addr, u8 *data)
{
    if (registry.isApprox(addr)) {
        // Blocks the guardrail routed precise stay coherent: serve
        // them from the precise half until it evicts them.
        if (preciseLlc->contains(addr))
            return preciseLlc->fetch(addr, data);
        if (guardrail && guardrail->degraded() &&
            !doppLlc->contains(addr)) {
            // Degraded: new approximate fills go to the precise half
            // (exact storage) until the error estimate recovers.
            // Doppelgänger-resident blocks keep hitting there.
            ++degradedFillsCtr;
            return preciseLlc->fetch(addr, data);
        }
        return doppLlc->fetch(addr, data);
    }
    return preciseLlc->fetch(addr, data);
}

void
SplitLlc::writeback(Addr addr, const u8 *data)
{
    if (registry.isApprox(addr) && !preciseLlc->contains(addr))
        doppLlc->writeback(addr, data);
    else
        preciseLlc->writeback(addr, data);
}

bool
SplitLlc::contains(Addr addr) const
{
    if (registry.isApprox(addr)) {
        return doppLlc->contains(addr) ||
            preciseLlc->contains(addr);
    }
    return preciseLlc->contains(addr);
}

void
SplitLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    preciseLlc->forEachBlock(visit);
    doppLlc->forEachBlock(visit);
}

void
SplitLlc::flush()
{
    preciseLlc->flush();
    doppLlc->flush();
}

void
SplitLlc::setFaultInjector(FaultInjector *fi)
{
    // Only the approximate structures take faults: the precise half
    // models a conventional ECC-protected cache. The split's own
    // llcStats never counts injections, so the aggregate counts each
    // fault exactly once (in the Doppelgänger half).
    doppLlc->setFaultInjector(fi);
}

void
SplitLlc::setHotPathProfile(HotPathProfile *p)
{
    // Both halves accumulate into one profile: a split approximate
    // access pays the precise-half probe (containment check) plus the
    // Doppelgänger path, and the breakdown should show both.
    preciseLlc->setHotPathProfile(p);
    doppLlc->setHotPathProfile(p);
}

void
SplitLlc::setGuardrail(QorGuardrail *g)
{
    // The split consults degraded() for routing; the Doppelgänger half
    // feeds the error estimate. degradedFills is counted only here.
    guardrail = g;
    doppLlc->setGuardrail(g);
}

const LlcStats &
SplitLlc::stats() const
{
    // Sum of both halves plus the split's own routing counters
    // (degradedFills); each event is counted in exactly one of the
    // three blocks.
    combined = addStats(preciseLlc->stats(), doppLlc->stats());
    combined.degradedFills += degradedFillsCtr.value();
    return combined;
}

void
SplitLlc::resetStats()
{
    preciseLlc->resetStats();
    doppLlc->resetStats();
    degradedFillsCtr.reset();
}

} // namespace dopp
