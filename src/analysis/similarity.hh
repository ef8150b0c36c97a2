/**
 * @file
 * LLC-content similarity analyses (paper Sec 2 and Sec 5.1).
 *
 * The paper instruments applications with Pin and periodically examines
 * the blocks resident in a baseline 2 MB LLC, reporting the *average
 * fraction of approximate data storage* that could be saved if similar
 * blocks shared one data entry. We reproduce the same measurement by
 * snapshotting our simulated baseline LLC during workload execution and
 * running these analyses over the snapshots:
 *
 *  - thresholdSavings: element-wise similarity at threshold T (Fig 2)
 *  - mapSavings:       map-space clustering at M bits (Fig 7)
 *  - dedupSavings:     exact byte-identical deduplication (Fig 8)
 *  - bdiSavings:       B∆I intra-block compression (Fig 8)
 *  - doppBdiSavings:   map clustering + B∆I on the survivors (Fig 8)
 *
 * runWorkload runs the analyses a config names in
 * RunConfig::snapshotAnalyses (findSnapshotAnalysis) and keeps each as
 * a run stat.
 */

#ifndef DOPP_ANALYSIS_SIMILARITY_HH
#define DOPP_ANALYSIS_SIMILARITY_HH

#include <string>
#include <vector>

#include "core/map_function.hh"
#include "sim/llc.hh"
#include "sim/memory.hh"

namespace dopp
{

/** One LLC-resident block captured for offline analysis. */
struct SnapshotBlock
{
    Addr addr = 0;
    BlockData data = {};
    bool approx = false;
    ElemType type = ElemType::F32;
    double minValue = 0.0;
    double maxValue = 1.0;
};

/** A point-in-time capture of LLC contents. */
using Snapshot = std::vector<SnapshotBlock>;

/** Capture the LLC's resident blocks, annotating each from @p reg. */
Snapshot captureSnapshot(const LastLevelCache &llc,
                         const ApproxRegistry &reg);

/**
 * Fig 2: fraction of approximate data storage saved when blocks that
 * are pair-wise element-similar at threshold @p threshold share one
 * entry. @p threshold is a fraction of the declared value range (e.g.
 * 0.01 for "1%"). Two blocks are similar iff *every* element pair
 * differs by at most threshold × range (Sec 2).
 *
 * Clustering is greedy first-fit over blocks sorted by element average;
 * @p max_candidates bounds the per-block representative scan to keep
 * the analysis linear-ish (a documented approximation that only
 * *under*-counts savings).
 */
double thresholdSavings(const Snapshot &snap, double threshold,
                        size_t max_candidates = 512);

/** Fig 7: savings when blocks with equal M-bit maps share an entry. */
double mapSavings(const Snapshot &snap, unsigned map_bits,
                  MapHashMode mode = MapHashMode::AvgAndRange);

/** Fig 8: savings from exact (byte-identical) deduplication. */
double dedupSavings(const Snapshot &snap);

/** Fig 8: savings from B∆I compression of every approximate block. */
double bdiSavings(const Snapshot &snap);

/** Savings from FPC compression of every approximate block (the other
 * compression scheme the paper cites; not in Fig 8 itself). */
double fpcSavings(const Snapshot &snap);

/** Fig 8: Doppelgänger map sharing, then B∆I on the unique blocks. */
double doppBdiSavings(const Snapshot &snap, unsigned map_bits);

/**
 * Fig 8 (extended): savings from GDISH global-dictionary sharing —
 * blocks whose 4-byte words all fit the bounded dictionary store
 * 2-byte indices (gdishCompressedBlockBytes), the rest stay raw.
 * Blocks are offered in snapshot order against the same
 * reference-counted GdishDict the LLC organization runs, so the
 * analysis and the cache agree on what "compressible" means.
 * @p dict_entries 0 selects the GdishLlcConfig default.
 */
double gdishSavings(const Snapshot &snap, u32 dict_entries = 0);

/**
 * Fig 8 (extended): savings from approximate (threshold-match)
 * deduplication — blocks sharing a quantized-element signature
 * (approxDedupSignature at @p map_bits) collapse to one entry. The
 * lossy counterpart of dedupSavings and the storage-side twin of the
 * approxDedup LLC organization.
 */
double approxDedupSavings(const Snapshot &snap, unsigned map_bits);

/** Table 2: fraction of resident blocks that are approximate. */
double approxFraction(const Snapshot &snap);

/** Most blocks a thinned analysis examines per snapshot. */
constexpr size_t snapshotThinCap = 6000;

/** Deterministically thin @p snap to at most @p cap evenly strided
 * blocks (a copy of @p snap when it already fits). */
Snapshot thinSnapshot(const Snapshot &snap, size_t cap);

/**
 * One named snapshot analysis (RunConfig::snapshotAnalyses). A run
 * samples it on every LLC snapshot into the Distribution
 * "snapshot.<name>", whose mean is the paper's average over
 * snapshots.
 */
struct SnapshotAnalysis
{
    const char *name; ///< no dots: it is a stat name
    double (*measure)(const Snapshot &);
    bool thinned; ///< runs on thinSnapshot(snap, snapshotThinCap)
};

/** The closed table of analyses: approxFraction (Table 2), the five
 * Fig 2 thresholds, map12..map14 (Fig 7) and Fig 8's bdi, dedup,
 * doppBdi14, gdish and approxDedup14. nullptr for an unknown name. */
const SnapshotAnalysis *findSnapshotAnalysis(const std::string &name);

} // namespace dopp

#endif // DOPP_ANALYSIS_SIMILARITY_HH
