#include "bdi.hh"

#include <bit>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace dopp
{

namespace
{

/** Read a k-byte little-endian word from @p p. */
u64
readWord(const u8 *p, unsigned k)
{
    u64 v = 0;
    for (unsigned i = 0; i < k; ++i)
        v |= static_cast<u64>(p[i]) << (8 * i);
    return v;
}

/** Write a k-byte little-endian word to @p p. */
void
writeWord(u8 *p, unsigned k, u64 v)
{
    for (unsigned i = 0; i < k; ++i)
        p[i] = static_cast<u8>(v >> (8 * i));
}

/**
 * Sign-extend the low @p bits of @p v to 64 bits. Total for every
 * @p bits: 0 extends nothing and ≥ 64 keeps @p v whole, instead of
 * the undefined `1 << (bits-1)` shift either boundary would hit —
 * the (k,d) table never reaches them today, but the exhaustive
 * round-trip fuzzer (tests/test_bdi.cc, BdiFuzz) is what pins the
 * codec, not the table shape.
 */
u64
signExtend(u64 v, unsigned bits)
{
    if (bits == 0)
        return 0;
    if (bits >= 64)
        return v;
    const u64 m = 1ULL << (bits - 1);
    v &= lowMask(bits);
    return (v ^ m) - m;
}

/** Does the k-byte value @p v fit as a d-byte signed immediate?
 * Trivially true at d ≥ k (every k-byte value is its own d-byte
 * immediate), so the helper stays total if the table ever grows a
 * degenerate pairing. */
bool
fitsSigned(u64 v, unsigned d, unsigned k)
{
    if (d >= k)
        return true;
    const u64 kept = v & lowMask(8 * k);
    const u64 sx = signExtend(v, 8 * d) & lowMask(8 * k);
    return sx == kept;
}

struct BkDd
{
    BdiEncoding enc;
    unsigned k; ///< word size in bytes
    unsigned d; ///< delta size in bytes
};

/** The BkDd encodings in ascending size order, so the first one a
 * block fits is its smallest (ties keep this order). */
constexpr BkDd bkddTable[] = {
    {BdiEncoding::B8D1, 8, 1}, {BdiEncoding::B4D1, 4, 1},
    {BdiEncoding::B8D2, 8, 2}, {BdiEncoding::B2D1, 2, 1},
    {BdiEncoding::B4D2, 4, 2}, {BdiEncoding::B8D4, 8, 4},
};

constexpr bool
ascendingSizes()
{
    for (size_t i = 1; i < std::size(bkddTable); ++i)
        if (bdiEncodingSize(bkddTable[i].enc) <
            bdiEncodingSize(bkddTable[i - 1].enc))
            return false;
    return true;
}
static_assert(ascendingSizes(), "bkddTable must ascend in size");
static_assert(std::endian::native == std::endian::little,
              "the size kernel loads little-endian words directly");

/**
 * Does @p block fit BkDd with k = @p K, d = @p D? The size-only twin
 * of tryBkDd over whole K-byte words: the base is the first word that
 * is not a d-byte immediate, and the scan stops at the first word
 * that fits neither form.
 */
template <unsigned K, unsigned D>
bool
fitsBkDd(const u8 *block)
{
    using W = std::conditional_t<K == 8, u64,
                                 std::conditional_t<K == 4, u32, u16>>;
    static_assert(sizeof(W) == K && D < K);
    constexpr unsigned n = blockBytes / K;
    // v is a d-byte signed immediate iff v + 2^(8d-1) < 2^(8d),
    // computed modulo 2^(8k).
    constexpr W half = static_cast<W>(W{1} << (8 * D - 1));
    constexpr u64 span = u64{1} << (8 * D);
    const auto imm = [](W v) {
        return static_cast<W>(v + half) < span;
    };

    W w[n];
    std::memcpy(w, block, blockBytes);
    unsigned i = 0;
    while (i < n && imm(w[i]))
        ++i;
    if (i == n)
        return true;
    const W base = w[i];
    for (++i; i < n; ++i) {
        if (!imm(w[i]) && !imm(static_cast<W>(w[i] - base)))
            return false;
    }
    return true;
}

/** Size of the first bkddTable encoding (from entry @p I on) that
 * @p block fits, else 64 B. */
template <size_t I = 0>
unsigned
firstFitSize(const u8 *block)
{
    if constexpr (I == std::size(bkddTable)) {
        return blockBytes;
    } else {
        constexpr BkDd e = bkddTable[I];
        return fitsBkDd<e.k, e.d>(block) ? bdiEncodingSize(e.enc)
                                         : firstFitSize<I + 1>(block);
    }
}

/** Try the BkDd encoding; on success fill base/mask/deltas. */
bool
tryBkDd(const u8 *block, unsigned k, unsigned d, u64 &base,
        std::vector<bool> *mask, std::vector<u64> *deltas)
{
    const unsigned n = blockBytes / k;
    bool haveBase = false;
    base = 0;

    for (unsigned i = 0; i < n; ++i) {
        const u64 w = readWord(block + i * k, k);
        if (fitsSigned(w, d, k))
            continue;
        if (!haveBase) {
            base = w;
            haveBase = true;
        }
        const u64 delta = (w - base) & lowMask(8 * k);
        if (!fitsSigned(delta, d, k))
            return false;
    }

    if (mask && deltas) {
        mask->assign(n, false);
        deltas->assign(n, 0);
        for (unsigned i = 0; i < n; ++i) {
            const u64 w = readWord(block + i * k, k);
            // Prefer the immediate form when both apply, like the
            // reference design (base bit = 0).
            if (fitsSigned(w, d, k)) {
                (*deltas)[i] = w & lowMask(8 * d);
            } else {
                (*mask)[i] = true;
                (*deltas)[i] = (w - base) & lowMask(8 * d);
            }
        }
    }
    return true;
}

bool
isZeros(const u8 *block)
{
    for (unsigned i = 0; i < blockBytes; ++i)
        if (block[i] != 0)
            return false;
    return true;
}

bool
isRep8(const u8 *block)
{
    for (unsigned i = 8; i < blockBytes; ++i)
        if (block[i] != block[i - 8])
            return false;
    return true;
}

} // namespace

const char *
bdiEncodingName(BdiEncoding enc)
{
    switch (enc) {
      case BdiEncoding::Zeros: return "zeros";
      case BdiEncoding::Rep8: return "rep8";
      case BdiEncoding::B8D1: return "b8d1";
      case BdiEncoding::B8D2: return "b8d2";
      case BdiEncoding::B8D4: return "b8d4";
      case BdiEncoding::B4D1: return "b4d1";
      case BdiEncoding::B4D2: return "b4d2";
      case BdiEncoding::B2D1: return "b2d1";
      case BdiEncoding::Uncompressed: return "uncompressed";
    }
    return "?";
}

unsigned
bdiCompressedSize(const u8 *block)
{
    u64 w[blockBytes / 8];
    std::memcpy(w, block, blockBytes);
    u64 any = 0;
    bool rep = true;
    for (const u64 x : w) {
        any |= x;
        rep &= x == w[0];
    }
    if (any == 0)
        return bdiEncodingSize(BdiEncoding::Zeros);
    if (rep)
        return bdiEncodingSize(BdiEncoding::Rep8);
    return firstFitSize(block);
}

BdiCompressed
bdiCompress(const u8 *block)
{
    BdiCompressed out;

    if (isZeros(block)) {
        out.encoding = BdiEncoding::Zeros;
        out.size = 1;
        out.payload = {0};
        return out;
    }
    if (isRep8(block)) {
        out.encoding = BdiEncoding::Rep8;
        out.size = 8;
        out.payload.assign(block, block + 8);
        return out;
    }

    const BkDd *bestEnc = nullptr;
    unsigned bestSize = blockBytes;
    for (const auto &e : bkddTable) {
        const unsigned size = bdiEncodingSize(e.enc);
        u64 base;
        if (size < bestSize &&
            tryBkDd(block, e.k, e.d, base, nullptr, nullptr)) {
            bestSize = size;
            bestEnc = &e;
        }
    }

    if (!bestEnc) {
        out.encoding = BdiEncoding::Uncompressed;
        out.size = blockBytes;
        out.payload.assign(block, block + blockBytes);
        return out;
    }

    const unsigned k = bestEnc->k;
    const unsigned d = bestEnc->d;
    const unsigned n = blockBytes / k;
    u64 base = 0;
    std::vector<bool> mask;
    std::vector<u64> deltas;
    const bool ok = tryBkDd(block, k, d, base, &mask, &deltas);
    DOPP_ASSERT(ok);

    out.encoding = bestEnc->enc;
    out.size = bestSize;
    out.payload.resize(bestSize);
    u8 *p = out.payload.data();
    writeWord(p, k, base);
    p += k;
    const unsigned maskBytes = (n + 7) / 8;
    std::memset(p, 0, maskBytes);
    for (unsigned i = 0; i < n; ++i)
        if (mask[i])
            p[i / 8] |= static_cast<u8>(1u << (i % 8));
    p += maskBytes;
    for (unsigned i = 0; i < n; ++i) {
        writeWord(p, d, deltas[i]);
        p += d;
    }
    return out;
}

bool
bdiDecompress(const BdiCompressed &c, u8 *out)
{
    switch (c.encoding) {
      case BdiEncoding::Zeros:
        std::memset(out, 0, blockBytes);
        return true;
      case BdiEncoding::Rep8:
        if (c.payload.size() < 8)
            return false;
        for (unsigned i = 0; i < blockBytes; i += 8)
            std::memcpy(out + i, c.payload.data(), 8);
        return true;
      case BdiEncoding::Uncompressed:
        if (c.payload.size() < blockBytes)
            return false;
        std::memcpy(out, c.payload.data(), blockBytes);
        return true;
      default:
        break;
    }

    unsigned k = 0;
    unsigned d = 0;
    for (const auto &e : bkddTable) {
        if (e.enc == c.encoding) {
            k = e.k;
            d = e.d;
            break;
        }
    }
    if (k == 0)
        return false;

    const unsigned n = blockBytes / k;
    const unsigned maskBytes = (n + 7) / 8;
    if (c.payload.size() < k + maskBytes + n * d)
        return false;

    const u8 *p = c.payload.data();
    const u64 base = readWord(p, k);
    p += k;
    const u8 *maskP = p;
    p += maskBytes;
    for (unsigned i = 0; i < n; ++i) {
        const bool fromBase = (maskP[i / 8] >> (i % 8)) & 1;
        const u64 delta = signExtend(readWord(p + i * d, d), 8 * d);
        const u64 word = (delta + (fromBase ? base : 0)) & lowMask(8 * k);
        writeWord(out + i * k, k, word);
    }
    return true;
}

} // namespace dopp
