/**
 * @file
 * Base-Delta-Immediate (B∆I) cache compression [Pekhimenko et al.,
 * PACT 2012], the lossless intra-block baseline the paper compares
 * against in Fig 8 and the "Dopp + B∆I" combination.
 *
 * A 64 B block is encoded as one of:
 *   - Zeros: the whole block is zero (1 B)
 *   - Rep:   one 8 B value repeated (8 B)
 *   - BkDd:  k-byte words expressed as d-byte signed deltas from either
 *            a single k-byte base or from zero ("immediate"); a bit per
 *            word selects the base (k ∈ {8,4,2}, d < k)
 *   - Uncompressed (64 B)
 *
 * The encoder picks the smallest applicable encoding; the decoder
 * losslessly reconstructs the original bytes.
 */

#ifndef DOPP_COMPRESS_BDI_HH
#define DOPP_COMPRESS_BDI_HH

#include <vector>

#include "util/types.hh"

namespace dopp
{

/** B∆I encoding selector. */
enum class BdiEncoding : u8
{
    Zeros,        ///< all-zero block, 1 B
    Rep8,         ///< repeated 8 B value, 8 B
    B8D1,         ///< 8 B base, 1 B deltas: 8 + 8×1 + 1 = 17 B
    B8D2,         ///< 8 B base, 2 B deltas: 8 + 8×2 + 1 = 25 B
    B8D4,         ///< 8 B base, 4 B deltas: 8 + 8×4 + 1 = 41 B
    B4D1,         ///< 4 B base, 1 B deltas: 4 + 16×1 + 2 = 22 B
    B4D2,         ///< 4 B base, 2 B deltas: 4 + 16×2 + 2 = 38 B
    B2D1,         ///< 2 B base, 1 B deltas: 2 + 32×1 + 4 = 38 B
    Uncompressed, ///< 64 B
};

/** Name of @p enc for reports. */
const char *bdiEncodingName(BdiEncoding enc);

/** Compressed payload size in bytes of @p enc (excluding the 4-bit
 * encoding id, which lives in the tag in hardware). */
constexpr unsigned
bdiEncodingSize(BdiEncoding enc)
{
    switch (enc) {
      case BdiEncoding::Zeros: return 1;
      case BdiEncoding::Rep8: return 8;
      case BdiEncoding::B8D1: return 8 + 8 * 1 + 1;   // 17
      case BdiEncoding::B8D2: return 8 + 8 * 2 + 1;   // 25
      case BdiEncoding::B8D4: return 8 + 8 * 4 + 1;   // 41
      case BdiEncoding::B4D1: return 4 + 16 * 1 + 2;  // 22
      case BdiEncoding::B4D2: return 4 + 16 * 2 + 2;  // 38
      case BdiEncoding::B2D1: return 2 + 32 * 1 + 4;  // 38
      case BdiEncoding::Uncompressed: return blockBytes;
    }
    return blockBytes;
}

/** Result of compressing one block. */
struct BdiCompressed
{
    BdiEncoding encoding = BdiEncoding::Uncompressed;
    unsigned size = blockBytes;  ///< payload bytes
    std::vector<u8> payload;     ///< serialized representation
};

/**
 * Compress a 64 B block, choosing the smallest applicable encoding.
 */
BdiCompressed bdiCompress(const u8 *block);

/**
 * Size-only version of bdiCompress (no payload serialization): the
 * hot path of BdiLlc, UniDoppBdiLlc's accounting and the Fig 8
 * storage analysis. A compile-time kernel per (k, d) with whole-word
 * loads; equals `bdiCompress(block).size` for every block.
 */
unsigned bdiCompressedSize(const u8 *block);

/**
 * Decompress @p c into 64 bytes at @p out.
 * @return false if the payload is malformed.
 */
bool bdiDecompress(const BdiCompressed &c, u8 *out);

} // namespace dopp

#endif // DOPP_COMPRESS_BDI_HH
