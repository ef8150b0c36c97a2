#include "similarity.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "compress/bdi.hh"
#include "compress/fpc.hh"
#include "compress/dedup.hh"
#include "compress/gdish.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace dopp
{

Snapshot
captureSnapshot(const LastLevelCache &llc, const ApproxRegistry &reg)
{
    Snapshot snap;
    llc.forEachBlock([&](const LlcBlockInfo &info) {
        SnapshotBlock b;
        b.addr = info.addr;
        std::memcpy(b.data.data(), info.data, blockBytes);
        const ApproxRegion *region = reg.find(info.addr);
        b.approx = region != nullptr;
        if (region) {
            b.type = region->type;
            b.minValue = region->minValue;
            b.maxValue = region->maxValue;
        }
        snap.push_back(b);
    });
    return snap;
}

namespace
{

/** Mean of a block's (clamped) elements, the 1-D sort key. */
double
blockAverage(const SnapshotBlock &b)
{
    const unsigned n = elemsPerBlock(b.type);
    double sum = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        double v = blockElement(b.data.data(), b.type, i);
        if (std::isnan(v))
            v = b.minValue;
        sum += std::clamp(v, b.minValue, b.maxValue);
    }
    return sum / static_cast<double>(n);
}

/** Sec 2 definition: every element pair within @p tol (absolute). */
bool
elementsSimilar(const SnapshotBlock &a, const SnapshotBlock &b,
                double tol)
{
    if (a.type != b.type)
        return false;
    const unsigned n = elemsPerBlock(a.type);
    for (unsigned i = 0; i < n; ++i) {
        double va = blockElement(a.data.data(), a.type, i);
        double vb = blockElement(b.data.data(), b.type, i);
        if (std::isnan(va))
            va = a.minValue;
        if (std::isnan(vb))
            vb = b.minValue;
        va = std::clamp(va, a.minValue, a.maxValue);
        vb = std::clamp(vb, b.minValue, b.maxValue);
        if (std::abs(va - vb) > tol)
            return false;
    }
    return true;
}

std::vector<const SnapshotBlock *>
approxBlocks(const Snapshot &snap)
{
    std::vector<const SnapshotBlock *> out;
    for (const auto &b : snap)
        if (b.approx)
            out.push_back(&b);
    return out;
}

struct BytesHash
{
    size_t
    operator()(const BlockData &d) const
    {
        return static_cast<size_t>(fnv1a64(d.data(), blockBytes));
    }
};

} // namespace

double
thresholdSavings(const Snapshot &snap, double threshold,
                 size_t max_candidates)
{
    auto blocks = approxBlocks(snap);
    if (blocks.empty())
        return 0.0;

    if (threshold <= 0.0) {
        // T = 0%: similarity degenerates to exact equality.
        return dedupSavings(snap);
    }

    // Sort by element average: similar blocks must have averages within
    // the tolerance, so candidates lie in a contiguous window.
    std::vector<std::pair<double, const SnapshotBlock *>> keyed;
    keyed.reserve(blocks.size());
    for (const auto *b : blocks)
        keyed.emplace_back(blockAverage(*b), b);
    std::sort(keyed.begin(), keyed.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });

    // Greedy first-fit clustering against prior representatives.
    std::vector<std::pair<double, const SnapshotBlock *>> reps;
    for (const auto &[avg, blk] : keyed) {
        const double tol = threshold * (blk->maxValue - blk->minValue);
        bool placed = false;
        size_t scanned = 0;
        for (auto it = reps.rbegin();
             it != reps.rend() && scanned < max_candidates;
             ++it, ++scanned) {
            if (avg - it->first > tol)
                break; // representatives are sorted by average
            if (elementsSimilar(*blk, *it->second, tol)) {
                placed = true;
                break;
            }
        }
        if (!placed)
            reps.emplace_back(avg, blk);
    }

    return 1.0 - static_cast<double>(reps.size()) /
        static_cast<double>(blocks.size());
}

double
mapSavings(const Snapshot &snap, unsigned map_bits, MapHashMode mode)
{
    auto blocks = approxBlocks(snap);
    if (blocks.empty())
        return 0.0;

    std::unordered_set<u64> maps;
    for (const auto *b : blocks) {
        MapParams p;
        p.mapBits = map_bits;
        p.type = b->type;
        p.minValue = b->minValue;
        p.maxValue = b->maxValue;
        maps.insert(computeMap(b->data.data(), p, mode));
    }
    return 1.0 - static_cast<double>(maps.size()) /
        static_cast<double>(blocks.size());
}

double
dedupSavings(const Snapshot &snap)
{
    auto blocks = approxBlocks(snap);
    if (blocks.empty())
        return 0.0;

    std::unordered_set<BlockData, BytesHash> unique;
    for (const auto *b : blocks)
        unique.insert(b->data);
    return 1.0 - static_cast<double>(unique.size()) /
        static_cast<double>(blocks.size());
}

double
bdiSavings(const Snapshot &snap)
{
    auto blocks = approxBlocks(snap);
    if (blocks.empty())
        return 0.0;

    u64 compressed = 0;
    for (const auto *b : blocks)
        compressed += bdiCompressedSize(b->data.data());
    const u64 raw = static_cast<u64>(blocks.size()) * blockBytes;
    return 1.0 - static_cast<double>(compressed) /
        static_cast<double>(raw);
}

double
fpcSavings(const Snapshot &snap)
{
    auto blocks = approxBlocks(snap);
    if (blocks.empty())
        return 0.0;

    u64 compressed = 0;
    for (const auto *b : blocks)
        compressed += fpcCompressedSize(b->data.data());
    const u64 raw = static_cast<u64>(blocks.size()) * blockBytes;
    return 1.0 - static_cast<double>(compressed) /
        static_cast<double>(raw);
}

double
doppBdiSavings(const Snapshot &snap, unsigned map_bits)
{
    auto blocks = approxBlocks(snap);
    if (blocks.empty())
        return 0.0;

    // One stored block per unique map; B∆I shrinks the stored blocks.
    std::unordered_map<u64, const SnapshotBlock *> reps;
    for (const auto *b : blocks) {
        MapParams p;
        p.mapBits = map_bits;
        p.type = b->type;
        p.minValue = b->minValue;
        p.maxValue = b->maxValue;
        reps.emplace(computeMap(b->data.data(), p), b);
    }
    u64 stored = 0;
    for (const auto &[map, b] : reps)
        stored += bdiCompressedSize(b->data.data());
    const u64 raw = static_cast<u64>(blocks.size()) * blockBytes;
    return 1.0 - static_cast<double>(stored) / static_cast<double>(raw);
}

double
gdishSavings(const Snapshot &snap, u32 dict_entries)
{
    auto blocks = approxBlocks(snap);
    if (blocks.empty())
        return 0.0;

    if (dict_entries == 0)
        dict_entries = GdishLlcConfig{}.dictEntries;
    GdishDict dict(dict_entries);
    u64 stored = 0;
    for (const auto *b : blocks) {
        stored += dict.acquire(b->data.data())
            ? gdishCompressedBlockBytes
            : blockBytes;
    }
    const u64 raw = static_cast<u64>(blocks.size()) * blockBytes;
    return 1.0 - static_cast<double>(stored) /
        static_cast<double>(raw);
}

double
approxDedupSavings(const Snapshot &snap, unsigned map_bits)
{
    auto blocks = approxBlocks(snap);
    if (blocks.empty())
        return 0.0;

    std::unordered_set<u64> signatures;
    for (const auto *b : blocks) {
        MapParams p;
        p.mapBits = map_bits;
        p.type = b->type;
        p.minValue = b->minValue;
        p.maxValue = b->maxValue;
        signatures.insert(approxDedupSignature(b->data.data(), p));
    }
    return 1.0 - static_cast<double>(signatures.size()) /
        static_cast<double>(blocks.size());
}

double
approxFraction(const Snapshot &snap)
{
    if (snap.empty())
        return 0.0;
    u64 approx = 0;
    for (const auto &b : snap)
        if (b.approx)
            ++approx;
    return static_cast<double>(approx) / static_cast<double>(snap.size());
}

Snapshot
thinSnapshot(const Snapshot &snap, size_t cap)
{
    if (snap.size() <= cap)
        return snap;
    Snapshot out;
    out.reserve(cap);
    const double stride =
        static_cast<double>(snap.size()) / static_cast<double>(cap);
    for (size_t i = 0; i < cap; ++i)
        out.push_back(snap[static_cast<size_t>(
            static_cast<double>(i) * stride)]);
    return out;
}

const SnapshotAnalysis *
findSnapshotAnalysis(const std::string &name)
{
    using S = const Snapshot &;
    static const SnapshotAnalysis table[] = {
        {"approxFraction", [](S s) { return approxFraction(s); }, false},
        {"threshold0", [](S s) { return thresholdSavings(s, 0.0); }, true},
        {"threshold1e-4", [](S s) { return thresholdSavings(s, 0.0001); },
         true},
        {"threshold1e-3", [](S s) { return thresholdSavings(s, 0.001); },
         true},
        {"threshold1e-2", [](S s) { return thresholdSavings(s, 0.01); },
         true},
        {"threshold1e-1", [](S s) { return thresholdSavings(s, 0.10); },
         true},
        {"map12", [](S s) { return mapSavings(s, 12); }, true},
        {"map13", [](S s) { return mapSavings(s, 13); }, true},
        {"map14", [](S s) { return mapSavings(s, 14); }, true},
        {"bdi", [](S s) { return bdiSavings(s); }, true},
        {"dedup", [](S s) { return dedupSavings(s); }, true},
        {"doppBdi14", [](S s) { return doppBdiSavings(s, 14); }, true},
        {"gdish", [](S s) { return gdishSavings(s); }, true},
        {"approxDedup14", [](S s) { return approxDedupSavings(s, 14); },
         true},
    };
    for (const SnapshotAnalysis &a : table) {
        if (name == a.name)
            return &a;
    }
    return nullptr;
}

} // namespace dopp
