#include "approx_dedup.hh"

#include <algorithm>
#include <cmath>

#include "util/hash.hh"

namespace dopp
{

u64
approxDedupCells(unsigned map_bits)
{
    const unsigned bits = std::max(1u, (map_bits + 1) / 2);
    return 1ULL << std::min(bits, 32u);
}

u64
approxDedupSignature(const u8 *block, const MapParams &params)
{
    const unsigned n = elemsPerBlock(params.type);
    const u64 cells = approxDedupCells(params.mapBits);
    const double range = params.maxValue - params.minValue;
    // Degenerate range: every in-range value shares cell 0, exactly
    // like the map function's bypass handling of empty ranges.
    const double step = range > 0.0
        ? range / static_cast<double>(cells)
        : 1.0;

    u64 h = fnv1a64Basis;
    for (unsigned i = 0; i < n; ++i) {
        double v = blockElement(block, params.type, i);
        if (std::isnan(v))
            v = params.minValue;
        v = std::clamp(v, params.minValue, params.maxValue);
        u64 cell = static_cast<u64>((v - params.minValue) / step);
        cell = std::min(cell, cells - 1);
        for (unsigned b = 0; b < 8; ++b)
            h = fnv1a64Step(h, static_cast<u8>(cell >> (8 * b)));
    }
    return h;
}

ApproxDedupLlc::ApproxDedupLlc(MainMemory &memory,
                               const ApproxDedupConfig &config,
                               const ApproxRegistry *registry,
                               StatRegistry *stat_registry,
                               const std::string &stat_group,
                               DoppEngineMaker make_engine)
    : LastLevelCache(memory, stat_registry, stat_group)
{
    DoppConfig dc;
    dc.tagEntries = config.tagEntries;
    dc.tagWays = config.tagWays;
    dc.dataEntries = config.dataEntries;
    dc.dataWays = config.dataWays;
    dc.mapBits = config.mapBits;
    dc.hitLatency = config.hitLatency;
    dc.unified = false;
    dc.mapOverride = approxDedupSignature;
    // Unlike DedupLlc's content hash, the signature depends on the
    // region annotations (type, declared range), so the engine gets
    // the registry and resolves MapParams per block.
    engine = make_engine(memory, dc, registry, stat_registry, stat_group);
}

void
ApproxDedupLlc::setBackInvalidate(BackInvalidateFn fn)
{
    engine->setBackInvalidate(std::move(fn));
}

void
ApproxDedupLlc::setFaultInjector(FaultInjector *fi)
{
    LastLevelCache::setFaultInjector(fi);
    engine->setFaultInjector(fi);
}

void
ApproxDedupLlc::setGuardrail(QorGuardrail *g)
{
    LastLevelCache::setGuardrail(g);
    engine->setGuardrail(g);
}

LastLevelCache::FetchResult
ApproxDedupLlc::fetch(Addr addr, u8 *data)
{
    return engine->fetch(addr, data);
}

void
ApproxDedupLlc::writeback(Addr addr, const u8 *data)
{
    engine->writeback(addr, data);
}

bool
ApproxDedupLlc::contains(Addr addr) const
{
    return engine->contains(addr);
}

void
ApproxDedupLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    engine->forEachBlock(visit);
}

void
ApproxDedupLlc::flush()
{
    engine->flush();
}

} // namespace dopp
