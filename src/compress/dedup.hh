/**
 * @file
 * The map functions of the two deduplicating LLC organizations. Each
 * organization is a plain decoupled Doppelgänger engine whose
 * DoppConfig::mapOverride is one of these functions; the factory
 * builds it (harness/llc_builders.cc), there is no wrapper class.
 *
 * - dedup: exact last-level-cache deduplication [Tian et al., ICS
 *   2014], the inter-block lossless baseline of Fig 8. The map is a
 *   64-bit content hash, so only byte-identical blocks share a data
 *   entry (up to the ~2^-64 chance of a hash collision, which would
 *   merely introduce the same kind of aliasing Doppelgänger embraces
 *   by design).
 * - approxDedup: its lossy counterpart, threshold-match dedup. Blocks
 *   whose elements agree within a quantization tolerance share one
 *   data entry, trading a bounded per-element error for a far larger
 *   sharing pool — the approx-dedup vs. approx-compression contrast of
 *   the survey literature. The map is a quantized-element signature:
 *   every element is snapped to a uniform grid over its region's
 *   declared range and the grid cells are hashed. Two blocks collide
 *   exactly when all elements fall into the same cells, i.e. pairwise
 *   differ by less than one grid step — the threshold-match rule of
 *   Fig 2 expressed as a pure function of the block, so it rides the
 *   engine's sharing, eviction, fault-injection and repair machinery
 *   unchanged. The grid uses ⌈mapBits/2⌉ bits per element: the
 *   default 14-bit map space gives 128 cells, ≈0.8 % of range —
 *   inside the similarity thresholds the paper studies.
 *
 * The snapshot analysis (analysis/similarity.cc) uses the signature
 * too.
 */

#ifndef DOPP_COMPRESS_DEDUP_HH
#define DOPP_COMPRESS_DEDUP_HH

#include "core/map_function.hh"
#include "util/types.hh"

namespace dopp
{

/**
 * dedup's map: FNV-1a over the block's 64 bytes; @p params is unused
 * (MapOverrideFn-compatible).
 */
u64 dedupContentHash(const u8 *block, const MapParams &params);

/** Grid cells per element for @p map_bits (2^⌈mapBits/2⌉). */
u64 approxDedupCells(unsigned map_bits);

/**
 * approxDedup's map: FNV-1a over every element's grid cell under
 * @p params. Signature equality ⇔ all elements within one grid step
 * (MapOverrideFn-compatible).
 */
u64 approxDedupSignature(const u8 *block, const MapParams &params);

} // namespace dopp

#endif // DOPP_COMPRESS_DEDUP_HH
