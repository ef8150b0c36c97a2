/**
 * @file
 * Unit tests for the conventional baseline LLC and the private cache
 * building block.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "sim/llc.hh"
#include "sim/private_cache.hh"

namespace dopp
{

namespace
{

void
seed(MainMemory &mem, Addr addr, u8 value)
{
    BlockData b;
    b.fill(value);
    mem.poke(addr, b.data(), blockBytes);
}

} // namespace

class ConventionalLlcTest : public ::testing::Test
{
  protected:
    ConventionalLlcTest()
        : llc(mem, 64 * 1024, 16, 6, nullptr) // 1024 blocks, 64 sets
    {
    }

    MainMemory mem;
    ConventionalLlc llc;
    BlockData buf;
};

TEST_F(ConventionalLlcTest, MissGoesToMemory)
{
    seed(mem, 0x1000, 0x5A);
    const auto r = llc.fetch(0x1000, buf.data());
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, 6u + mem.latency());
    EXPECT_EQ(buf[0], 0x5A);
}

TEST_F(ConventionalLlcTest, HitLatencyIsConfigured)
{
    llc.fetch(0x1000, buf.data());
    const auto r = llc.fetch(0x1000, buf.data());
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 6u);
}

TEST_F(ConventionalLlcTest, WritebackUpdatesAndDirties)
{
    llc.fetch(0x1000, buf.data());
    BlockData w;
    w.fill(0x77);
    llc.writeback(0x1000, w.data());
    llc.fetch(0x1000, buf.data());
    EXPECT_EQ(buf[0], 0x77);

    // Flush writes the dirty block to memory.
    llc.flush();
    BlockData back;
    mem.peek(0x1000, back.data(), blockBytes);
    EXPECT_EQ(back[0], 0x77);
}

TEST_F(ConventionalLlcTest, CleanEvictionSilent)
{
    llc.fetch(0x1000, buf.data());
    mem.resetStats();
    llc.flush();
    EXPECT_EQ(mem.writes(), 0u);
}

TEST_F(ConventionalLlcTest, OrphanWritebackGoesStraightToMemory)
{
    BlockData w;
    w.fill(0x12);
    llc.writeback(0x9000, w.data()); // never fetched
    BlockData back;
    mem.peek(0x9000, back.data(), blockBytes);
    EXPECT_EQ(back[0], 0x12);
    EXPECT_FALSE(llc.contains(0x9000));
}

TEST_F(ConventionalLlcTest, LruEvictionWithinSet)
{
    // 64 sets: addresses k * 64 * 64 all land in set 0.
    const Addr stride = 64 * blockBytes;
    for (unsigned k = 0; k <= 16; ++k)
        llc.fetch(k * stride, buf.data());
    EXPECT_FALSE(llc.contains(0));        // LRU victim
    EXPECT_TRUE(llc.contains(stride));    // the rest survive
    EXPECT_TRUE(llc.contains(16 * stride));
}

TEST_F(ConventionalLlcTest, EvictionTriggersBackInvalidation)
{
    unsigned invalidations = 0;
    llc.setBackInvalidate([&](Addr, u8 *) {
        ++invalidations;
        return false;
    });
    const Addr stride = 64 * blockBytes;
    for (unsigned k = 0; k <= 16; ++k)
        llc.fetch(k * stride, buf.data());
    EXPECT_EQ(invalidations, 1u);
}

TEST_F(ConventionalLlcTest, DirtyPrivateCopySupersedesOnEviction)
{
    llc.fetch(0x1000, buf.data());
    llc.setBackInvalidate([&](Addr, u8 *data) {
        BlockData priv;
        priv.fill(0xEE);
        std::memcpy(data, priv.data(), blockBytes);
        return true;
    });
    llc.flush();
    BlockData back;
    mem.peek(0x1000, back.data(), blockBytes);
    EXPECT_EQ(back[0], 0xEE);
}

TEST_F(ConventionalLlcTest, StatsAccounting)
{
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    const LlcStats &s = llc.stats();
    EXPECT_EQ(s.fetches, 3u);
    EXPECT_EQ(s.fetchHits, 1u);
    EXPECT_EQ(s.fetchMisses, 2u);
    EXPECT_DOUBLE_EQ(s.missRate(), 2.0 / 3.0);
    EXPECT_EQ(s.tagArray.reads, 3u);
    EXPECT_EQ(s.dataArray.writes, 2u); // two fills
    EXPECT_EQ(s.dataArray.reads, 1u);  // one hit
}

TEST_F(ConventionalLlcTest, ResetStats)
{
    llc.fetch(0x1000, buf.data());
    llc.resetStats();
    EXPECT_EQ(llc.stats().fetches, 0u);
    EXPECT_TRUE(llc.contains(0x1000)); // contents untouched
}

TEST_F(ConventionalLlcTest, ForEachBlockReportsResidents)
{
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    unsigned count = 0;
    llc.forEachBlock([&](const LlcBlockInfo &info) {
        ++count;
        EXPECT_TRUE(info.addr == 0x1000 || info.addr == 0x2000);
        EXPECT_FALSE(info.approx); // no registry attached
    });
    EXPECT_EQ(count, 2u);
}

TEST_F(ConventionalLlcTest, RegistryLabelsApproxBlocks)
{
    ApproxRegistry reg;
    ApproxRegion r;
    r.base = 0x1000;
    r.size = 0x100;
    r.type = ElemType::U8;
    r.minValue = 0;
    r.maxValue = 255;
    r.name = "px";
    reg.add(r);
    ConventionalLlc llc2(mem, 64 * 1024, 16, 6, &reg);
    llc2.fetch(0x1000, buf.data());
    llc2.fetch(0x2000, buf.data());
    unsigned approx = 0;
    llc2.forEachBlock([&](const LlcBlockInfo &info) {
        if (info.approx) {
            ++approx;
            EXPECT_EQ(info.type, ElemType::U8);
        }
    });
    EXPECT_EQ(approx, 1u);
}

TEST_F(ConventionalLlcTest, EntriesReported)
{
    EXPECT_EQ(llc.entries(), 1024u);
}

// ---------------------------------------------------------------------
// PrivateCache
// ---------------------------------------------------------------------

namespace
{

/** Eviction handler for allocations that expect no valid victim. */
void
noVictim(Addr, PrivateCache::Slot)
{
}

} // namespace

TEST(PrivateCache, FindMissThenInsert)
{
    PrivateCache pc(16 * 1024, 4);
    EXPECT_EQ(pc.find(0x1000), PrivateCache::noSlot);
    const PrivateCache::Slot s = pc.allocate(0x1000, noVictim);
    EXPECT_TRUE(pc.valid(s));
    EXPECT_FALSE(pc.dirty(s));
    EXPECT_FALSE(pc.owned(s));
    EXPECT_EQ(pc.addrOf(s), 0x1000u);
    EXPECT_EQ(pc.find(0x1000), s);
    EXPECT_EQ(pc.find(0x1040), PrivateCache::noSlot); // next block
}

TEST(PrivateCache, EvictCallbackSeesVictim)
{
    PrivateCache pc(16 * 1024, 4); // 64 sets
    const Addr stride = 64 * blockBytes;
    for (unsigned k = 0; k < 4; ++k) {
        const PrivateCache::Slot s = pc.allocate(k * stride, noVictim);
        pc.data(s)[0] = static_cast<u8>(k);
        pc.setDirty(s, k == 0);
    }
    Addr victimAddr = 0;
    u8 victimByte = 0xFF;
    bool victimDirty = false;
    pc.allocate(4 * stride, [&](Addr a, PrivateCache::Slot v) {
        victimAddr = a;
        victimByte = pc.data(v)[0];
        victimDirty = pc.dirty(v);
    });
    EXPECT_EQ(victimAddr, 0u); // LRU
    EXPECT_EQ(victimByte, 0u);
    EXPECT_TRUE(victimDirty); // handler runs before the flags reset
    EXPECT_EQ(pc.find(0), PrivateCache::noSlot);
}

TEST(PrivateCache, TouchChangesVictim)
{
    PrivateCache pc(16 * 1024, 4);
    const Addr stride = 64 * blockBytes;
    for (unsigned k = 0; k < 4; ++k)
        pc.allocate(k * stride, noVictim);
    EXPECT_NE(pc.lookup(0), PrivateCache::noSlot); // refresh address 0
    Addr victimAddr = 0xDEAD;
    pc.allocate(4 * stride,
                [&](Addr a, PrivateCache::Slot) { victimAddr = a; });
    EXPECT_EQ(victimAddr, stride); // now the LRU
}

TEST(PrivateCache, FindDoesNotTouch)
{
    PrivateCache pc(16 * 1024, 4);
    const Addr stride = 64 * blockBytes;
    for (unsigned k = 0; k < 4; ++k)
        pc.allocate(k * stride, noVictim);
    EXPECT_NE(pc.find(0), PrivateCache::noSlot); // a probe, not a use
    Addr victimAddr = 0xDEAD;
    pc.allocate(4 * stride,
                [&](Addr a, PrivateCache::Slot) { victimAddr = a; });
    EXPECT_EQ(victimAddr, 0u);
}

TEST(PrivateCache, AllocateClearsDirtyAndOwned)
{
    PrivateCache pc(16 * 1024, 1); // direct-mapped: the slot is reused
    const Addr stride = 256 * blockBytes;
    const PrivateCache::Slot s = pc.allocate(0, noVictim);
    pc.setDirty(s, true);
    pc.setOwned(s, true);
    const PrivateCache::Slot t =
        pc.allocate(stride, [](Addr, PrivateCache::Slot) {});
    EXPECT_EQ(s, t);
    EXPECT_FALSE(pc.dirty(t));
    EXPECT_FALSE(pc.owned(t));
}

TEST(PrivateCache, Invalidate)
{
    PrivateCache pc(16 * 1024, 4);
    pc.allocate(0x1000, noVictim);
    EXPECT_TRUE(pc.invalidate(0x1000));
    EXPECT_EQ(pc.find(0x1000), PrivateCache::noSlot);
    EXPECT_FALSE(pc.invalidate(0x1000));
}

TEST(PrivateCache, ForEachLine)
{
    PrivateCache pc(16 * 1024, 4);
    pc.setDirty(pc.allocate(0x1000, noVictim), true);
    pc.allocate(0x2000, noVictim);
    unsigned total = 0;
    unsigned dirty = 0;
    pc.forEachLine([&](Addr addr, PrivateCache::Slot s) {
        EXPECT_EQ(pc.addrOf(s), addr);
        ++total;
        if (pc.dirty(s))
            ++dirty;
    });
    EXPECT_EQ(total, 2u);
    EXPECT_EQ(dirty, 1u);
}

TEST(PrivateCache, Geometry)
{
    PrivateCache l1(16 * 1024, 4); // Table 1 L1
    EXPECT_EQ(l1.sets(), 64u);
    EXPECT_EQ(l1.ways(), 4u);
    PrivateCache l2(128 * 1024, 8); // Table 1 L2
    EXPECT_EQ(l2.sets(), 256u);
    EXPECT_EQ(l2.ways(), 8u);
}

} // namespace dopp
