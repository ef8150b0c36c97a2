/**
 * @file
 * Unit tests for the main-memory model: functional storage, zero-fill
 * semantics, traffic accounting, cross-block poke/peek, and (MemArena)
 * property tests of the page-arena store against a block-granular
 * std::unordered_map model, including tiered routing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_map>
#include <vector>

#include "sim/mem_tier.hh"
#include "sim/memory.hh"
#include "util/random.hh"

namespace dopp
{

TEST(MainMemory, ZeroFilledOnFirstTouch)
{
    MainMemory mem;
    BlockData buf;
    buf.fill(0xAB);
    mem.readBlock(0x1000, buf.data());
    for (u8 b : buf)
        EXPECT_EQ(b, 0);
}

TEST(MainMemory, WriteThenReadBack)
{
    MainMemory mem;
    BlockData w;
    for (unsigned i = 0; i < blockBytes; ++i)
        w[i] = static_cast<u8>(i);
    mem.writeBlock(0x2000, w.data());
    BlockData r = {};
    mem.readBlock(0x2000, r.data());
    EXPECT_EQ(w, r);
}

TEST(MainMemory, UnalignedAddressesAlias)
{
    MainMemory mem;
    BlockData w = {};
    w[0] = 7;
    mem.writeBlock(0x2000, w.data());
    BlockData r = {};
    mem.readBlock(0x2007, r.data()); // same block
    EXPECT_EQ(r[0], 7);
}

TEST(MainMemory, TrafficCounters)
{
    MainMemory mem;
    BlockData b = {};
    mem.readBlock(0, b.data());
    mem.readBlock(64, b.data());
    mem.writeBlock(0, b.data());
    EXPECT_EQ(mem.reads(), 2u);
    EXPECT_EQ(mem.writes(), 1u);
    EXPECT_EQ(mem.traffic(), 3u);
}

TEST(MainMemory, PokePeekNoTraffic)
{
    MainMemory mem;
    const u32 v = 0xDEADBEEF;
    mem.poke(0x123, &v, sizeof(v));
    u32 r = 0;
    mem.peek(0x123, &r, sizeof(r));
    EXPECT_EQ(r, v);
    EXPECT_EQ(mem.traffic(), 0u);
}

TEST(MainMemory, PokeCrossesBlockBoundary)
{
    MainMemory mem;
    u8 data[128];
    for (unsigned i = 0; i < 128; ++i)
        data[i] = static_cast<u8>(i ^ 0x5A);
    mem.poke(0x1020, data, sizeof(data)); // spans three blocks
    u8 back[128] = {};
    mem.peek(0x1020, back, sizeof(back));
    EXPECT_EQ(std::memcmp(data, back, sizeof(data)), 0);
}

TEST(MainMemory, PeekUntouchedIsZero)
{
    MainMemory mem;
    u64 v = 123;
    mem.peek(0x9999999, &v, sizeof(v));
    EXPECT_EQ(v, 0u);
}

TEST(MainMemory, PokeVisibleToReadBlock)
{
    MainMemory mem;
    const float f = 3.25f;
    mem.poke(0x4004, &f, sizeof(f));
    BlockData b = {};
    mem.readBlock(0x4000, b.data());
    float r;
    std::memcpy(&r, b.data() + 4, sizeof(r));
    EXPECT_EQ(r, f);
}

TEST(MainMemory, ResetStatsKeepsContents)
{
    MainMemory mem;
    BlockData w = {};
    w[0] = 9;
    mem.writeBlock(0, w.data());
    mem.resetStats();
    EXPECT_EQ(mem.traffic(), 0u);
    BlockData r = {};
    mem.readBlock(0, r.data());
    EXPECT_EQ(r[0], 9);
    EXPECT_EQ(mem.reads(), 1u);
}

TEST(MainMemory, ConfigurableLatency)
{
    MainMemory fast(10);
    MainMemory table1;
    EXPECT_EQ(fast.latency(), 10u);
    EXPECT_EQ(table1.latency(), 160u); // Table 1 default
}

// ---------------------------------------------------------------------
// Page-arena property tests: MainMemory against a block-granular model.
// ---------------------------------------------------------------------

namespace
{

constexpr Addr pageBytes = 4096;

/** The old store's semantics: a sparse map of blocks, zero when
 * absent. */
class BlockModel
{
  public:
    void
    poke(Addr addr, const u8 *src, u64 len)
    {
        for (u64 i = 0; i < len; ++i)
            blocks[blockAlign(addr + i)][blockOffset(addr + i)] = src[i];
    }

    void
    peek(Addr addr, u8 *dst, u64 len) const
    {
        for (u64 i = 0; i < len; ++i) {
            const auto it = blocks.find(blockAlign(addr + i));
            dst[i] = it == blocks.end() ? 0 : it->second[blockOffset(addr + i)];
        }
    }

  private:
    std::unordered_map<Addr, BlockData> blocks;
};

/** A random address in one of four 2 MiB windows, spread widely
 * enough to grow the page map several times; windows start mid-page. */
Addr
randomAddr(Rng &rng)
{
    static const Addr bases[] = {0x800, 0x10000800, 0x7FFFF800,
                                 (Addr{1} << 40) + 0x800};
    return bases[rng.below(4)] + rng.below(512 * pageBytes);
}

} // namespace

TEST(MemArena, RandomPokePeekReadWriteMatchModel)
{
    MainMemory mem;
    BlockModel model;
    Rng rng(0xA4E4A);
    u64 reads = 0;
    u64 writes = 0;
    std::vector<u8> buf(3 * pageBytes);
    std::vector<u8> want(buf.size());
    for (int op = 0; op < 20000; ++op) {
        const Addr addr = randomAddr(rng);
        const u64 roll = rng.below(100);
        if (roll < 35) {
            // Lengths up to ~2 pages: crosses block and page borders.
            const u64 len = 1 + rng.below(rng.below(8) == 0 ? 2 * pageBytes
                                                            : 200);
            for (u64 i = 0; i < len; ++i)
                buf[i] = static_cast<u8>(rng.next());
            mem.poke(addr, buf.data(), len);
            model.poke(addr, buf.data(), len);
        } else if (roll < 70) {
            const u64 len = 1 + rng.below(rng.below(8) == 0 ? 2 * pageBytes
                                                            : 200);
            mem.peek(addr, buf.data(), len);
            model.peek(addr, want.data(), len);
            ASSERT_EQ(std::memcmp(buf.data(), want.data(), len), 0)
                << "peek of " << len << " bytes at 0x" << std::hex << addr
                << " (op " << std::dec << op << ")";
        } else if (roll < 85) {
            BlockData got;
            mem.readBlock(addr, got.data());
            ++reads;
            model.peek(blockAlign(addr), want.data(), blockBytes);
            ASSERT_EQ(std::memcmp(got.data(), want.data(), blockBytes), 0)
                << "readBlock at 0x" << std::hex << addr;
        } else {
            BlockData block;
            for (u8 &b : block)
                b = static_cast<u8>(rng.next());
            mem.writeBlock(addr, block.data());
            ++writes;
            model.poke(blockAlign(addr), block.data(), blockBytes);
        }
    }
    EXPECT_EQ(mem.reads(), reads);
    EXPECT_EQ(mem.writes(), writes);
    EXPECT_EQ(mem.traffic(), reads + writes);
    EXPECT_EQ(mem.partitionCounters(0).reads, reads);
    EXPECT_EQ(mem.partitionCounters(0).writes, writes);
    EXPECT_GT(mem.pagesResident(), 1000u); // the page map grew
}

TEST(MemArena, PeekOfUntouchedMemoryReadsZerosAndMaterializesNothing)
{
    MainMemory mem;
    const MainMemory &view = mem; // peek is const
    std::vector<u8> buf(3 * pageBytes, 0xCD);
    view.peek(0x12345, buf.data(), buf.size());
    for (u8 b : buf)
        ASSERT_EQ(b, 0);
    EXPECT_EQ(mem.pagesResident(), 0u);

    const u8 one = 7;
    mem.poke(pageBytes + 5, &one, 1);
    EXPECT_EQ(mem.pagesResident(), 1u);
    // Another block of the same page: zero, and no new page.
    u8 got = 0xFF;
    view.peek(pageBytes + 640, &got, 1);
    EXPECT_EQ(got, 0);
    view.peek(pageBytes + 5, &got, 1);
    EXPECT_EQ(got, 7);
    view.peek(9 * pageBytes, buf.data(), blockBytes);
    EXPECT_EQ(mem.pagesResident(), 1u);
}

TEST(MemArena, PagesAreFourKiBOfSixtyFourBlocks)
{
    MainMemory mem;
    BlockData block = {};
    mem.writeBlock(0, block.data());
    mem.writeBlock(pageBytes - blockBytes, block.data()); // same page
    EXPECT_EQ(mem.pagesResident(), 1u);
    mem.readBlock(pageBytes, block.data()); // the next page
    EXPECT_EQ(mem.pagesResident(), 2u);
    const u8 bytes[2] = {1, 2};
    mem.poke(3 * pageBytes - 1, bytes, 2); // straddles pages 2 and 3
    EXPECT_EQ(mem.pagesResident(), 4u);
    u8 got[2] = {};
    mem.peek(3 * pageBytes - 1, got, 2);
    EXPECT_EQ(got[0], 1);
    EXPECT_EQ(got[1], 2);
}

TEST(MemArena, TieredRouteMigrateRestoreMatchModel)
{
    // Model of the routing semantics: page -> partition, the recorded
    // spans, and the migrated flag.
    MainMemory mem(defaultMemTier(0.0, 0.0));
    ASSERT_EQ(mem.partitionCount(), 3u);
    std::unordered_map<Addr, u32> route;
    struct Span
    {
        Addr first, last;
        u32 part;
    };
    std::vector<Span> spans;
    bool migrated = false;
    u64 nextRegion = 0;
    u64 pagesMoved = 0;
    std::vector<u64> partReads(3, 0);
    std::vector<u64> partWrites(3, 0);
    auto modelPart = [&](Addr addr) {
        const auto it = route.find(addr / pageBytes);
        return it == route.end() ? 0u : it->second;
    };

    Rng rng(0x7E4ED);
    for (int op = 0; op < 6000; ++op) {
        const u64 roll = rng.below(1000);
        if (roll < 20) {
            const Addr base = rng.below(1 << 20) * 64;
            const u64 size = 1 + rng.below(6 * pageBytes);
            mem.routeApprox(base, size);
            const u32 part = 1 + static_cast<u32>(nextRegion++ % 2);
            const Span s{base / pageBytes, (base + size - 1) / pageBytes,
                         part};
            for (Addr p = s.first; p <= s.last; ++p)
                route[p] = migrated ? 0 : part;
            spans.push_back(s);
        } else if (roll < 25) {
            u64 moved = 0;
            if (!migrated) {
                migrated = true;
                for (const Span &s : spans) {
                    for (Addr p = s.first; p <= s.last; ++p) {
                        if (route[p] != 0) {
                            route[p] = 0;
                            ++moved;
                        }
                    }
                }
            }
            pagesMoved += moved;
            EXPECT_EQ(mem.migrateApproxToPrecise(), moved);
        } else if (roll < 30) {
            mem.restoreApproxRoutes();
            if (migrated) {
                migrated = false;
                for (const Span &s : spans)
                    for (Addr p = s.first; p <= s.last; ++p)
                        route[p] = s.part;
            }
        } else {
            const Addr addr = rng.below(1 << 20) * 64;
            ASSERT_EQ(mem.partitionOf(addr), modelPart(addr))
                << "op " << op << " addr 0x" << std::hex << addr;
            BlockData block = {};
            if (rng.below(2)) {
                mem.readBlock(addr, block.data());
                ++partReads[modelPart(addr)];
            } else {
                mem.writeBlock(addr, block.data());
                ++partWrites[modelPart(addr)];
            }
        }
        ASSERT_EQ(mem.migrated(), migrated);
    }
    EXPECT_EQ(mem.pagesMigrated(), pagesMoved);
    for (u32 i = 0; i < 3; ++i) {
        EXPECT_EQ(mem.partitionCounters(i).reads, partReads[i]) << i;
        EXPECT_EQ(mem.partitionCounters(i).writes, partWrites[i]) << i;
    }
    EXPECT_GT(partReads[1] + partWrites[1], 0u);
    EXPECT_GT(partReads[2] + partWrites[2], 0u);
}


} // namespace dopp
