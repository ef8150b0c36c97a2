/**
 * @file
 * Tests for the B∆I-compressed LLC organization: capacity-in-bytes
 * semantics, lossless service, compression-dependent effective
 * capacity, and eviction/writeback correctness.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>

#include "compress/bdi_llc.hh"
#include "harness/experiment.hh"
#include "util/random.hh"

namespace dopp
{

namespace
{

BdiLlcConfig
smallBdi()
{
    BdiLlcConfig cfg;
    cfg.sizeBytes = 16 * 1024; // 4 sets x 4 ways worth of bytes...
    cfg.ways = 4;
    cfg.tagFactor = 2;
    return cfg;
}

/** Block of i32 = base + tiny deltas: compresses to B4D1 (22 B). */
void
seedCompressible(MainMemory &mem, Addr addr, i32 base)
{
    BlockData b;
    for (unsigned i = 0; i < 16; ++i) {
        const i32 v = base + static_cast<i32>(i % 4);
        std::memcpy(b.data() + i * 4, &v, 4);
    }
    mem.poke(addr, b.data(), blockBytes);
}

/** Random incompressible block. */
void
seedRandom(MainMemory &mem, Addr addr, u64 seed)
{
    Rng rng(seed);
    BlockData b;
    for (auto &byte : b)
        byte = static_cast<u8>(rng.below(256));
    mem.poke(addr, b.data(), blockBytes);
}

} // namespace

TEST(BdiLlc, ServesDataLosslessly)
{
    MainMemory mem;
    BdiLlc llc(mem, smallBdi(), nullptr);
    seedCompressible(mem, 0x1000, 1000000);
    BlockData expect;
    mem.peek(0x1000, expect.data(), blockBytes);

    BlockData buf;
    llc.fetch(0x1000, buf.data());
    EXPECT_EQ(buf, expect);
    llc.fetch(0x1000, buf.data()); // hit path
    EXPECT_EQ(buf, expect);
    EXPECT_EQ(llc.stats().fetchHits, 1u);
}

TEST(BdiLlc, HitPaysDecompressionLatency)
{
    MainMemory mem;
    BdiLlcConfig cfg = smallBdi();
    cfg.hitLatency = 6;
    cfg.decompressLatency = 1;
    BdiLlc llc(mem, cfg, nullptr);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    const auto r = llc.fetch(0x1000, buf.data());
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 7u);
}

TEST(BdiLlc, CompressibleBlocksExceedNominalWays)
{
    // One set's byte budget is 4 x 64 = 256 B; compressible blocks at
    // ~22 B each allow up to tagFactor x ways = 8 residents.
    MainMemory mem;
    BdiLlc llc(mem, smallBdi(), nullptr);
    BlockData buf;
    const u32 sets = static_cast<u32>(
        smallBdi().sizeBytes / blockBytes / smallBdi().ways);
    const Addr stride = static_cast<Addr>(sets) * blockBytes;
    for (unsigned k = 0; k < 8; ++k) {
        seedCompressible(mem, k * stride, 5000 + 100 * k);
        llc.fetch(k * stride, buf.data());
    }
    for (unsigned k = 0; k < 8; ++k)
        EXPECT_TRUE(llc.contains(k * stride)) << k;
    EXPECT_GT(llc.compressionRatio(), 2.0);
}

TEST(BdiLlc, IncompressibleBlocksLimitedToWays)
{
    MainMemory mem;
    BdiLlc llc(mem, smallBdi(), nullptr);
    BlockData buf;
    const u32 sets = static_cast<u32>(
        smallBdi().sizeBytes / blockBytes / smallBdi().ways);
    const Addr stride = static_cast<Addr>(sets) * blockBytes;
    for (unsigned k = 0; k < 8; ++k) {
        seedRandom(mem, k * stride, 77 + k);
        llc.fetch(k * stride, buf.data());
    }
    u64 resident = 0;
    for (unsigned k = 0; k < 8; ++k)
        resident += llc.contains(k * stride) ? 1 : 0;
    EXPECT_EQ(resident, 4u); // byte budget = exactly 4 raw blocks
    EXPECT_NEAR(llc.compressionRatio(), 1.0, 1e-9);
}

TEST(BdiLlc, WritebackGrowsBlockAndEvictsToFit)
{
    MainMemory mem;
    BdiLlc llc(mem, smallBdi(), nullptr);
    BlockData buf;
    const u32 sets = static_cast<u32>(
        smallBdi().sizeBytes / blockBytes / smallBdi().ways);
    const Addr stride = static_cast<Addr>(sets) * blockBytes;
    // Fill with 8 compressible blocks, then rewrite one incompressible.
    for (unsigned k = 0; k < 8; ++k) {
        seedCompressible(mem, k * stride, 9000 + 10 * k);
        llc.fetch(k * stride, buf.data());
    }
    // Rewriting two blocks incompressible (8 x 22 = 176 B resident;
    // 176 - 2x22 + 2x64 = 260 B > the 256 B budget) must evict.
    Rng rng(5);
    BlockData noisy;
    for (auto &b : noisy)
        b = static_cast<u8>(rng.below(256));
    llc.writeback(6 * stride, noisy.data());
    llc.writeback(7 * stride, noisy.data());

    // The written blocks survive with their new contents; capacity
    // pressure evicted some older residents.
    ASSERT_TRUE(llc.contains(7 * stride));
    llc.fetch(7 * stride, buf.data());
    EXPECT_EQ(buf, noisy);
    u64 resident = 0;
    for (unsigned k = 0; k < 8; ++k)
        resident += llc.contains(k * stride) ? 1 : 0;
    EXPECT_LT(resident, 8u);
}

TEST(BdiLlc, DirtyEvictionReachesMemory)
{
    MainMemory mem;
    BdiLlc llc(mem, smallBdi(), nullptr);
    BlockData buf;
    llc.fetch(0x2000, buf.data());
    BlockData w;
    w.fill(0x3C);
    llc.writeback(0x2000, w.data());
    llc.flush();
    BlockData back;
    mem.peek(0x2000, back.data(), blockBytes);
    EXPECT_EQ(back, w);
    EXPECT_FALSE(llc.contains(0x2000));
    EXPECT_EQ(llc.blockCount(), 0u);
    EXPECT_EQ(llc.compressedBytes(), 0u);
}

TEST(BdiLlc, BackInvalidationHookFires)
{
    MainMemory mem;
    BdiLlc llc(mem, smallBdi(), nullptr);
    unsigned calls = 0;
    llc.setBackInvalidate([&](Addr, u8 *) {
        ++calls;
        return false;
    });
    BlockData buf;
    llc.fetch(0x2000, buf.data());
    llc.flush();
    EXPECT_EQ(calls, 1u);
}

TEST(BdiLlc, ForEachBlockAndStats)
{
    MainMemory mem;
    BdiLlc llc(mem, smallBdi(), nullptr);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    unsigned visited = 0;
    llc.forEachBlock([&](const LlcBlockInfo &) { ++visited; });
    EXPECT_EQ(visited, 2u);
    EXPECT_EQ(llc.stats().fetches, 2u);
    EXPECT_EQ(llc.blockCount(), 2u);
    EXPECT_STREQ(llc.name(), "bdi");
}

TEST(BdiLlc, RandomChurnStaysConsistent)
{
    // Functional property: reads always reflect the latest write.
    MainMemory mem;
    BdiLlc llc(mem, smallBdi(), nullptr);
    Rng rng(11);
    std::unordered_map<Addr, BlockData> reference;
    BlockData buf;
    for (int i = 0; i < 3000; ++i) {
        const Addr a = rng.below(64) * blockBytes;
        if (rng.below(3) == 0) {
            BlockData w;
            // Mix compressible and incompressible writes.
            if (rng.below(2) == 0) {
                w.fill(static_cast<u8>(rng.below(256)));
            } else {
                for (auto &b : w)
                    b = static_cast<u8>(rng.below(256));
            }
            // Writebacks only make sense for resident blocks in a real
            // hierarchy; emulate by fetching first.
            llc.fetch(a, buf.data());
            llc.writeback(a, w.data());
            reference[a] = w;
        } else {
            llc.fetch(a, buf.data());
            const auto it = reference.find(a);
            if (it != reference.end()) {
                ASSERT_EQ(buf, it->second) << "op " << i;
            }
        }
    }
}

TEST(BdiLlc, HarnessIntegration)
{
    // The Bdi organization runs a real workload losslessly.
    RunConfig cfg;
    cfg.llcName = "bdi";
    cfg.workload.scale = 0.05;
    const RunResult bdi = runWorkload("jpeg", cfg);
    cfg.llcName = "baseline";
    const RunResult base = runWorkload("jpeg", cfg);
    EXPECT_EQ(bdi.output, base.output);
    EXPECT_EQ(bdi.organization, "bdi");
}

} // namespace dopp
