/**
 * @file
 * Tests for the B∆I codec: encoding selection, published sizes,
 * lossless round-trips (including randomized property sweeps).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "compress/bdi.hh"
#include "sim/memory.hh"
#include "util/random.hh"

namespace dopp
{

namespace
{

BlockData
zeros()
{
    return BlockData{};
}

/** Block of k-byte words = base + small per-word delta. */
BlockData
baseDelta(u64 base, unsigned k, const std::vector<i64> &deltas)
{
    BlockData b = {};
    for (unsigned i = 0; i < blockBytes / k; ++i) {
        const u64 w = base + static_cast<u64>(
            deltas[i % deltas.size()]);
        for (unsigned j = 0; j < k; ++j)
            b[i * k + j] = static_cast<u8>(w >> (8 * j));
    }
    return b;
}

void
expectRoundTrip(const BlockData &block)
{
    const BdiCompressed c = bdiCompress(block.data());
    BlockData out = {};
    ASSERT_TRUE(bdiDecompress(c, out.data()))
        << bdiEncodingName(c.encoding);
    EXPECT_EQ(block, out) << bdiEncodingName(c.encoding);
}

} // namespace

TEST(Bdi, ZerosDetected)
{
    const BlockData b = zeros();
    const BdiCompressed c = bdiCompress(b.data());
    EXPECT_EQ(c.encoding, BdiEncoding::Zeros);
    EXPECT_EQ(c.size, 1u);
    expectRoundTrip(b);
}

TEST(Bdi, RepeatedValueDetected)
{
    BlockData b;
    for (unsigned i = 0; i < blockBytes; ++i)
        b[i] = static_cast<u8>(0xA0 + (i % 8));
    const BdiCompressed c = bdiCompress(b.data());
    EXPECT_EQ(c.encoding, BdiEncoding::Rep8);
    EXPECT_EQ(c.size, 8u);
    expectRoundTrip(b);
}

TEST(Bdi, B8D1Selected)
{
    const BlockData b =
        baseDelta(0x123456789ABCDEFULL, 8, {0, 3, -5, 100, 7});
    const BdiCompressed c = bdiCompress(b.data());
    EXPECT_EQ(c.encoding, BdiEncoding::B8D1);
    EXPECT_EQ(c.size, 17u);
    expectRoundTrip(b);
}

TEST(Bdi, B8D2Selected)
{
    const BlockData b =
        baseDelta(0x123456789ABCDEFULL, 8, {0, 3000, -5000, 10000});
    const BdiCompressed c = bdiCompress(b.data());
    EXPECT_EQ(c.encoding, BdiEncoding::B8D2);
    EXPECT_EQ(c.size, 25u);
    expectRoundTrip(b);
}

TEST(Bdi, B8D4Selected)
{
    const BlockData b = baseDelta(0x123456789ABCDEFULL, 8,
                                  {0, 3000000, -5000000});
    const BdiCompressed c = bdiCompress(b.data());
    EXPECT_EQ(c.encoding, BdiEncoding::B8D4);
    EXPECT_EQ(c.size, 41u);
    expectRoundTrip(b);
}

TEST(Bdi, B4D1Selected)
{
    const BlockData b = baseDelta(0x12345678ULL, 4, {0, 3, -7, 50});
    const BdiCompressed c = bdiCompress(b.data());
    EXPECT_EQ(c.encoding, BdiEncoding::B4D1);
    EXPECT_EQ(c.size, 22u);
    expectRoundTrip(b);
}

TEST(Bdi, B4D2Selected)
{
    const BlockData b = baseDelta(0x12345678ULL, 4, {0, 3000, -7000});
    const BdiCompressed c = bdiCompress(b.data());
    EXPECT_EQ(c.encoding, BdiEncoding::B4D2);
    EXPECT_EQ(c.size, 38u);
    expectRoundTrip(b);
}

TEST(Bdi, B2D1Selected)
{
    const BlockData b = baseDelta(0x4321ULL, 2, {0, 60, -60});
    const BdiCompressed c = bdiCompress(b.data());
    // B2D1 and B4D2 both have size 38; B4D2 is checked first, so
    // either may win — but the chosen encoding must round-trip and
    // beat 64 B.
    EXPECT_LT(c.size, blockBytes);
    expectRoundTrip(b);
}

TEST(Bdi, IncompressibleStaysRaw)
{
    Rng rng(1);
    BlockData b;
    for (auto &byte : b)
        byte = static_cast<u8>(rng.below(256));
    const BdiCompressed c = bdiCompress(b.data());
    EXPECT_EQ(c.encoding, BdiEncoding::Uncompressed);
    EXPECT_EQ(c.size, blockBytes);
    expectRoundTrip(b);
}

TEST(Bdi, ImmediateFormMixesWithBase)
{
    // Words near zero use the immediate (base-0) form alongside a
    // large base — the "I" in B∆I.
    const BlockData b = baseDelta(0, 8, {0, 1, 2});
    BlockData mixed = b;
    // Overwrite half the words with big-base values.
    for (unsigned i = 0; i < 4; ++i) {
        const u64 w = 0x99887766554433ULL + i;
        for (unsigned j = 0; j < 8; ++j)
            mixed[i * 8 + j] = static_cast<u8>(w >> (8 * j));
    }
    const BdiCompressed c = bdiCompress(mixed.data());
    EXPECT_EQ(c.encoding, BdiEncoding::B8D1);
    expectRoundTrip(mixed);
}

TEST(Bdi, EncodingSizesPublished)
{
    EXPECT_EQ(bdiEncodingSize(BdiEncoding::Zeros), 1u);
    EXPECT_EQ(bdiEncodingSize(BdiEncoding::Rep8), 8u);
    EXPECT_EQ(bdiEncodingSize(BdiEncoding::B8D1), 17u);
    EXPECT_EQ(bdiEncodingSize(BdiEncoding::B8D2), 25u);
    EXPECT_EQ(bdiEncodingSize(BdiEncoding::B8D4), 41u);
    EXPECT_EQ(bdiEncodingSize(BdiEncoding::B4D1), 22u);
    EXPECT_EQ(bdiEncodingSize(BdiEncoding::B4D2), 38u);
    EXPECT_EQ(bdiEncodingSize(BdiEncoding::B2D1), 38u);
    EXPECT_EQ(bdiEncodingSize(BdiEncoding::Uncompressed), 64u);
}

TEST(Bdi, EncodingNames)
{
    EXPECT_STREQ(bdiEncodingName(BdiEncoding::Zeros), "zeros");
    EXPECT_STREQ(bdiEncodingName(BdiEncoding::B8D1), "b8d1");
    EXPECT_STREQ(bdiEncodingName(BdiEncoding::Uncompressed),
                 "uncompressed");
}

/** Property: every block round-trips losslessly, whatever the input. */
class BdiRoundTripSweep : public ::testing::TestWithParam<u64>
{
};

TEST_P(BdiRoundTripSweep, RandomBlocksLossless)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 500; ++trial) {
        BlockData b;
        // Mix of patterns: raw random, word-patterned, sparse.
        const int mode = static_cast<int>(rng.below(4));
        if (mode == 0) {
            for (auto &byte : b)
                byte = static_cast<u8>(rng.below(256));
        } else if (mode == 1) {
            b = baseDelta(rng.next(), 8,
                          {0, static_cast<i64>(rng.below(1000)),
                           -static_cast<i64>(rng.below(1000))});
        } else if (mode == 2) {
            b = baseDelta(rng.next() & 0xFFFFFFFF, 4,
                          {0, static_cast<i64>(rng.below(100))});
        } else {
            b = {};
            b[rng.below(blockBytes)] = static_cast<u8>(rng.below(256));
        }
        const BdiCompressed c = bdiCompress(b.data());
        BlockData out = {};
        ASSERT_TRUE(bdiDecompress(c, out.data()));
        ASSERT_EQ(b, out)
            << "lossy " << bdiEncodingName(c.encoding) << " seed "
            << GetParam() << " trial " << trial;
        ASSERT_LE(c.size, static_cast<unsigned>(blockBytes));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BdiRoundTripSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(Bdi, DecompressRejectsTruncatedPayload)
{
    BdiCompressed c;
    c.encoding = BdiEncoding::B8D1;
    c.size = 17;
    c.payload = {1, 2, 3}; // too short
    BlockData out;
    EXPECT_FALSE(bdiDecompress(c, out.data()));
}

// ---------------------------------------------------------------------
// Exhaustive round-trip property fuzzer: random blocks plus
// adversarial extreme-delta blocks for every (k, d) pair. Compression
// must never be lossy and never exceed 64 B, whatever the input —
// including sign-extension boundaries (deltas at exactly ±2^(8d-1)),
// the all-immediate (zero-mask) path where the base word is never
// assigned, and bases at the edges of the k-byte range.
// ---------------------------------------------------------------------

namespace
{

struct KdPair
{
    unsigned k;
    unsigned d;
};

constexpr KdPair kdPairs[] = {
    {8, 1}, {8, 2}, {8, 4}, {4, 1}, {4, 2}, {2, 1},
};

/** Mask of the low 8·n bits (n ≤ 8). */
u64
bytesMask(unsigned n)
{
    return n >= 8 ? ~0ULL : ((1ULL << (8 * n)) - 1);
}

/** Block of k-byte words: base + deltas[i % deltas.size()], truncated
 * to k bytes (so overflow wraps exactly like the codec's arithmetic
 * must). */
BlockData
kdBlock(unsigned k, u64 base, const std::vector<u64> &deltas)
{
    BlockData b = {};
    for (unsigned i = 0; i < blockBytes / k; ++i) {
        const u64 w = (base + deltas[i % deltas.size()]) & bytesMask(k);
        for (unsigned j = 0; j < k; ++j)
            b[i * k + j] = static_cast<u8>(w >> (8 * j));
    }
    return b;
}

void
expectRoundTripAndBound(const BlockData &b, const char *label)
{
    const BdiCompressed c = bdiCompress(b.data());
    EXPECT_LE(c.size, static_cast<unsigned>(blockBytes)) << label;
    EXPECT_EQ(bdiCompressedSize(b.data()), c.size) << label;
    BlockData out = {};
    ASSERT_TRUE(bdiDecompress(c, out.data()))
        << label << " " << bdiEncodingName(c.encoding);
    EXPECT_EQ(b, out) << label << " "
                      << bdiEncodingName(c.encoding);
}

} // namespace

TEST(BdiFuzz, ExtremeDeltasAtEverySignBoundary)
{
    for (const auto &[k, d] : kdPairs) {
        const u64 dmax = (1ULL << (8 * d - 1)) - 1; // largest fitting
        const u64 dmin = ~dmax;                     // -2^(8d-1), 64-bit
        // Bases at the edges of the k-byte range, plus mid values.
        const u64 bases[] = {0,
                             1,
                             bytesMask(k),
                             bytesMask(k) >> 1,        // k-byte INT_MAX
                             (bytesMask(k) >> 1) + 1,  // k-byte INT_MIN
                             0x5AA55AA55AA55AA5ULL & bytesMask(k)};
        for (const u64 base : bases) {
            const std::vector<std::vector<u64>> deltaSets = {
                {0, dmax},          // just fits positive
                {0, dmin},          // just fits negative
                {0, dmax + 1},      // one past: must fall to wider d
                {0, dmin - 1},      // one past negative
                {dmin, dmax},       // full signed span
                {0, 1, dmax, dmin}, // mixed
            };
            for (size_t s = 0; s < deltaSets.size(); ++s) {
                const BlockData b = kdBlock(k, base, deltaSets[s]);
                const std::string label = "k=" + std::to_string(k) +
                    " d=" + std::to_string(d) + " base=" +
                    std::to_string(base) + " set=" + std::to_string(s);
                expectRoundTripAndBound(b, label.c_str());
            }
        }
    }
}

TEST(BdiFuzz, AllImmediateZeroMaskPath)
{
    // Every word fits the d-byte immediate, so the encoder never
    // assigns a base (mask stays all-zero and the serialized base is
    // a don't-care). Immediates sit exactly on the sign boundaries.
    for (const auto &[k, d] : kdPairs) {
        const u64 dmax = (1ULL << (8 * d - 1)) - 1;
        const u64 dminK = (~dmax) & bytesMask(k); // sign-ext in k bytes
        const BlockData b = kdBlock(k, 0, {0, dmax, dminK, 1});
        const std::string label = "imm k=" + std::to_string(k) +
            " d=" + std::to_string(d);
        expectRoundTripAndBound(b, label.c_str());
    }
}

TEST(BdiFuzz, RandomBlocksEveryStructureLossless)
{
    Rng rng(0xB0D1);
    for (int trial = 0; trial < 4000; ++trial) {
        const auto &[k, d] = kdPairs[rng.below(6)];
        BlockData b;
        const unsigned mode = rng.below(4);
        if (mode == 0) {
            // Pure random bytes.
            for (auto &byte : b)
                byte = static_cast<u8>(rng.below(256));
        } else if (mode == 1) {
            // Random base, random deltas of width ≤ d bytes (signed).
            std::vector<u64> deltas;
            for (int i = 0; i < 4; ++i) {
                u64 delta = rng.next() & bytesMask(d);
                if (rng.below(2))
                    delta = ~delta; // negative side
                deltas.push_back(delta);
            }
            b = kdBlock(k, rng.next(), deltas);
        } else if (mode == 2) {
            // Deltas one bit wider than d: forces a wider encoding or
            // an uncompressed block, never corruption.
            std::vector<u64> deltas;
            for (int i = 0; i < 4; ++i)
                deltas.push_back(rng.next() & (bytesMask(d) << 1));
            b = kdBlock(k, rng.next(), deltas);
        } else {
            // Mostly-immediate with a sprinkle of based words.
            std::vector<u64> deltas = {0, 1, rng.below(128)};
            b = kdBlock(k, 0, deltas);
            const u64 w = rng.next() & bytesMask(k);
            for (unsigned j = 0; j < k; ++j)
                b[j] = static_cast<u8>(w >> (8 * j));
        }
        const std::string label = "trial " + std::to_string(trial);
        expectRoundTripAndBound(b, label.c_str());
    }
}

/**
 * The size kernel (bdiCompressedSize: whole-word loads, one template
 * per (k, d), first fit in ascending size order) against the generic
 * byte-wise encoder's size, over every generator above: each (k, d)
 * with random and sign-boundary deltas, immediate-only and mixed
 * base-and-immediate words, zeros, rep8 and incompressible bytes.
 */
TEST(Bdi, SizeOnlyMatchesFullCompress)
{
    std::vector<BlockData> blocks;
    for (const auto &[k, d] : kdPairs) {
        const u64 dmax = (1ULL << (8 * d - 1)) - 1;
        const u64 dmin = ~dmax;
        const u64 dminK = dmin & bytesMask(k);
        const u64 bases[] = {0, 1, bytesMask(k), bytesMask(k) >> 1,
                             (bytesMask(k) >> 1) + 1};
        for (const u64 base : bases) {
            for (const std::vector<u64> &deltas :
                 std::vector<std::vector<u64>>{{0, dmax},
                                               {0, dmin},
                                               {0, dmax + 1},
                                               {0, dmin - 1},
                                               {dmin, dmax},
                                               {0, 1, dmax, dmin}})
                blocks.push_back(kdBlock(k, base, deltas));
        }
        blocks.push_back(kdBlock(k, 0, {0, dmax, dminK, 1}));
    }

    Rng rng(0x517E);
    while (blocks.size() < 12000) {
        const auto &[k, d] = kdPairs[rng.below(6)];
        BlockData b = {};
        switch (rng.below(8)) {
          case 0: // incompressible
            for (auto &byte : b)
                byte = static_cast<u8>(rng.below(256));
            break;
          case 1: // zeros
            break;
          case 2: { // rep8
            const u64 w = rng.next();
            for (unsigned i = 0; i < blockBytes; ++i)
                b[i] = static_cast<u8>(w >> (8 * (i % 8)));
            break;
          }
          case 3: { // random base, deltas of width ≤ d, either sign
            std::vector<u64> deltas;
            for (int i = 0; i < 4; ++i) {
                const u64 delta = rng.next() & bytesMask(d);
                deltas.push_back(rng.below(2) ? ~delta : delta);
            }
            b = kdBlock(k, rng.next(), deltas);
            break;
          }
          case 4: { // deltas one bit wider than d
            std::vector<u64> deltas;
            for (int i = 0; i < 4; ++i)
                deltas.push_back(rng.next() & (bytesMask(d) << 1));
            b = kdBlock(k, rng.next(), deltas);
            break;
          }
          case 5: { // immediate-only, near the sign boundary
            const u64 dmax = (1ULL << (8 * d - 1)) - 1;
            b = kdBlock(k, 0,
                        {rng.below(dmax + 1),
                         (~rng.below(dmax + 1)) & bytesMask(k)});
            break;
          }
          case 6: { // mixed base and immediate
            b = kdBlock(k, 0, {0, 1, rng.below(128)});
            const u64 w = rng.next() & bytesMask(k);
            const unsigned at = rng.below(blockBytes / k) * k;
            for (unsigned j = 0; j < k; ++j)
                b[at + j] = static_cast<u8>(w >> (8 * j));
            break;
          }
          default: // small deltas from one base, k ∈ {2, 4, 8}
            b = kdBlock(k, rng.next(),
                        {0, rng.below(200), rng.below(3) - 1});
            break;
        }
        blocks.push_back(b);
    }

    for (size_t i = 0; i < blocks.size(); ++i) {
        ASSERT_EQ(bdiCompressedSize(blocks[i].data()),
                  bdiCompress(blocks[i].data()).size)
            << "block " << i;
    }
}

TEST(Bdi, FloatDataRarelyCompresses)
{
    // The paper notes B∆I is weak on floating-point values: distinct
    // floats rarely share high-order bytes in a delta-friendly way.
    Rng rng(7);
    unsigned compressed = 0;
    for (int trial = 0; trial < 100; ++trial) {
        BlockData b;
        for (unsigned i = 0; i < 16; ++i) {
            const float f = static_cast<float>(rng.uniform(0.0, 100.0));
            std::memcpy(b.data() + i * 4, &f, 4);
        }
        if (bdiCompressedSize(b.data()) < blockBytes)
            ++compressed;
    }
    EXPECT_LT(compressed, 30u);
}

} // namespace dopp
