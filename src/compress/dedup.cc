#include "dedup.hh"

#include <algorithm>
#include <cmath>

#include "util/hash.hh"

namespace dopp
{

u64
dedupContentHash(const u8 *block, const MapParams &)
{
    return fnv1a64(block, blockBytes);
}

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

} // namespace dopp
