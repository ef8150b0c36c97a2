/**
 * @file
 * Tests for the 4-core coherent hierarchy: latency accounting,
 * MSI directory behaviour, inclusive back-invalidation, drain, and a
 * randomized functional-consistency property test against a flat
 * reference memory.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "sim/hierarchy.hh"
#include "sim/llc.hh"
#include "util/random.hh"

namespace dopp
{

namespace
{

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : llc(mem, 2 * 1024 * 1024, 16, 6, nullptr),
          sys(HierarchyConfig{}, llc, mem, &stats, "hierarchy")
    {
    }

    /** Hierarchy counter @p name ("l1.hits") read from the registry. */
    u64
    stat(const std::string &name)
    {
        return stats.snapshot().counter("hierarchy." + name);
    }

    u32
    read32(CoreId core, Addr a, Tick *lat = nullptr)
    {
        u32 v = 0;
        const Tick t = sys.access(core, a, false, 4, &v);
        if (lat)
            *lat = t;
        return v;
    }

    Tick
    write32(CoreId core, Addr a, u32 v)
    {
        return sys.access(core, a, true, 4, &v);
    }

    MainMemory mem;
    ConventionalLlc llc;
    StatRegistry stats;
    MemorySystem sys;
};

} // namespace

TEST_F(HierarchyTest, ColdMissLatencyStacksLevels)
{
    Tick lat;
    read32(0, 0x1000, &lat);
    // L1 (1) + L2 (3) + LLC (6) + memory (160).
    EXPECT_EQ(lat, 1u + 3u + 6u + 160u);
}

TEST_F(HierarchyTest, L1HitLatency)
{
    read32(0, 0x1000);
    Tick lat;
    read32(0, 0x1000, &lat);
    EXPECT_EQ(lat, 1u);
}

TEST_F(HierarchyTest, L2HitAfterL1Eviction)
{
    // L1 is 16 KB 4-way (64 sets); five same-set blocks evict one.
    const Addr stride = 64 * blockBytes;
    for (unsigned k = 0; k < 5; ++k)
        read32(0, k * stride);
    Tick lat;
    read32(0, 0, &lat); // evicted from L1, still in L2
    EXPECT_EQ(lat, 1u + 3u);
}

TEST_F(HierarchyTest, WriteThenReadSameCore)
{
    write32(0, 0x1000, 0xABCD);
    EXPECT_EQ(read32(0, 0x1000), 0xABCDu);
}

TEST_F(HierarchyTest, SubBlockAccessesIndependent)
{
    write32(0, 0x1000, 1);
    write32(0, 0x1004, 2);
    EXPECT_EQ(read32(0, 0x1000), 1u);
    EXPECT_EQ(read32(0, 0x1004), 2u);
}

TEST_F(HierarchyTest, RemoteCoreSeesWrite)
{
    write32(0, 0x1000, 0xBEEF);
    EXPECT_EQ(read32(1, 0x1000), 0xBEEFu);
}

TEST_F(HierarchyTest, WriteInvalidatesRemoteCopies)
{
    read32(1, 0x1000); // core 1 caches the block
    write32(0, 0x1000, 77);
    EXPECT_EQ(read32(1, 0x1000), 77u); // must not read stale data
}

TEST_F(HierarchyTest, PingPongWritesStayCoherent)
{
    for (u32 i = 0; i < 20; ++i) {
        write32(i % 4, 0x2000, i);
        EXPECT_EQ(read32((i + 1) % 4, 0x2000), i);
    }
    EXPECT_GT(stat("remoteFetches") + stat("upgrades"), 0u);
}

TEST_F(HierarchyTest, RemoteFetchCharged)
{
    write32(0, 0x1000, 5);
    Tick lat;
    read32(1, 0x1000, &lat);
    // Remote M copy adds the remote penalty on top of the LLC path.
    EXPECT_GE(lat, 1u + 3u + 6u + HierarchyConfig{}.remotePenalty);
    EXPECT_EQ(stat("remoteFetches"), 1u);
}

TEST_F(HierarchyTest, UpgradeCountsOnSharedWrite)
{
    read32(0, 0x1000);
    read32(1, 0x1000);
    write32(0, 0x1000, 9);
    EXPECT_GE(stat("upgrades"), 1u);
    EXPECT_GE(stat("invalidationsSent"), 1u);
}

TEST_F(HierarchyTest, StatsCountHitsAndMisses)
{
    read32(0, 0x1000);
    read32(0, 0x1000);
    read32(0, 0x1040);
    EXPECT_EQ(stat("accesses"), 3u);
    EXPECT_EQ(stat("loads"), 3u);
    EXPECT_EQ(stat("l1.hits"), 1u);
    EXPECT_EQ(stat("l1.misses"), 2u);
    EXPECT_EQ(stat("l2.misses"), 2u);
}

TEST_F(HierarchyTest, DrainWritesDirtyDataToMemory)
{
    write32(0, 0x1000, 0x1234);
    sys.drain();
    u32 v = 0;
    mem.peek(0x1000, &v, 4);
    EXPECT_EQ(v, 0x1234u);
    EXPECT_FALSE(llc.contains(0x1000));
}

TEST_F(HierarchyTest, DrainThenReadRefetches)
{
    write32(0, 0x1000, 42);
    sys.drain();
    EXPECT_EQ(read32(2, 0x1000), 42u);
}

TEST_F(HierarchyTest, InclusionMaintainedUnderLlcEviction)
{
    // A small LLC forces evictions; reads afterward must still be
    // correct (back-invalidation dropped the private copies).
    ConventionalLlc tiny(mem, 16 * 1024, 4, 6, nullptr); // 64 sets...
    MemorySystem small(HierarchyConfig{}, tiny, mem);
    const Addr stride = 64 * blockBytes;
    u32 v;
    for (u32 k = 0; k < 8; ++k) {
        v = k;
        small.access(0, k * stride, true, 4, &v);
    }
    for (u32 k = 0; k < 8; ++k) {
        v = 0xFFFFFFFF;
        small.access(0, k * stride, false, 4, &v);
        EXPECT_EQ(v, k);
    }
    EXPECT_GT(tiny.stats().backInvalidations, 0u);
}

TEST_F(HierarchyTest, AccessCountsPerLevel)
{
    for (int i = 0; i < 10; ++i)
        read32(0, 0x1000);
    EXPECT_EQ(sys.l1Accesses(), 10u);
    EXPECT_EQ(sys.l2Accesses(), 1u);
}

TEST(HierarchyProperty, RandomTrafficMatchesFlatMemory)
{
    // Functional consistency: with a precise LLC, every load must
    // return exactly what a flat reference memory would.
    MainMemory mem;
    ConventionalLlc llc(mem, 64 * 1024, 8, 6, nullptr); // small: churn
    MemorySystem sys(HierarchyConfig{}, llc, mem);
    std::unordered_map<Addr, u32> reference;

    Rng rng(2024);
    for (int i = 0; i < 20000; ++i) {
        const CoreId core = static_cast<CoreId>(rng.below(4));
        const Addr a = rng.below(4096) * 4; // 16 KB of u32s
        if (rng.below(2) == 0) {
            u32 v = static_cast<u32>(rng.next());
            sys.access(core, a, true, 4, &v);
            reference[a] = v;
        } else {
            u32 v = 0;
            sys.access(core, a, false, 4, &v);
            const auto it = reference.find(a);
            const u32 expect = it == reference.end() ? 0 : it->second;
            ASSERT_EQ(v, expect)
                << "mismatch at 0x" << std::hex << a << " op " << i;
        }
    }

    // After drain, backing memory holds the reference contents.
    sys.drain();
    for (const auto &[a, expect] : reference) {
        u32 v = 0;
        mem.peek(a, &v, 4);
        ASSERT_EQ(v, expect);
    }
}

TEST(HierarchyProperty, WiderSweepAcrossCoreCounts)
{
    for (u32 cores : {1u, 2u, 4u}) {
        MainMemory mem;
        ConventionalLlc llc(mem, 32 * 1024, 4, 6, nullptr);
        HierarchyConfig hc;
        hc.numCores = cores;
        MemorySystem sys(hc, llc, mem);
        std::unordered_map<Addr, u8> reference;
        Rng rng(cores * 17);
        for (int i = 0; i < 5000; ++i) {
            const CoreId core = static_cast<CoreId>(rng.below(cores));
            const Addr a = rng.below(2048);
            if (rng.below(2) == 0) {
                u8 v = static_cast<u8>(rng.below(256));
                sys.access(core, a, true, 1, &v);
                reference[a] = v;
            } else {
                u8 v = 0;
                sys.access(core, a, false, 1, &v);
                const auto it = reference.find(a);
                ASSERT_EQ(v, it == reference.end() ? 0 : it->second);
            }
        }
    }
}

TEST(HierarchyConfigTest, Table1Defaults)
{
    const HierarchyConfig hc;
    EXPECT_EQ(hc.numCores, 4u);
    EXPECT_EQ(hc.l1Bytes, 16u * 1024);
    EXPECT_EQ(hc.l1Ways, 4u);
    EXPECT_EQ(hc.l1Latency, 1u);
    EXPECT_EQ(hc.l2Bytes, 128u * 1024);
    EXPECT_EQ(hc.l2Ways, 8u);
    EXPECT_EQ(hc.l2Latency, 3u);
}

TEST(HierarchyDeathTest, TooManyCoresFatal)
{
    MainMemory mem;
    ConventionalLlc llc(mem, 64 * 1024, 8, 6, nullptr);
    HierarchyConfig hc;
    hc.numCores = 64;
    EXPECT_EXIT((MemorySystem(hc, llc, mem)),
                ::testing::ExitedWithCode(1), "core count");
}

} // namespace dopp
