/**
 * @file
 * Unit, behavioural and property tests for the Doppelgänger cache —
 * the operational semantics of paper Sections 3.2-3.5 and the
 * uniDoppelgänger variant of Sec 3.8.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "core/doppelganger_cache.hh"
#include "util/random.hh"

namespace dopp
{

namespace
{

/** Small test geometry: 64 tags (4 sets x 16), 16 data entries. */
DoppConfig
smallConfig()
{
    DoppConfig cfg;
    cfg.tagEntries = 64;
    cfg.tagWays = 16;
    cfg.dataEntries = 16;
    cfg.dataWays = 4;
    cfg.mapBits = 14;
    cfg.defaultType = ElemType::F32;
    cfg.defaultMin = 0.0;
    cfg.defaultMax = 1.0;
    return cfg;
}

/** Write a block of identical f32 values into memory at addr. */
void
seedBlock(MainMemory &mem, Addr addr, float value)
{
    BlockData b;
    for (unsigned i = 0; i < elemsPerBlock(ElemType::F32); ++i)
        setBlockElement(b.data(), ElemType::F32, i,
                        static_cast<double>(value));
    mem.poke(addr, b.data(), blockBytes);
}

BlockData
makeBlock(float value)
{
    BlockData b;
    for (unsigned i = 0; i < elemsPerBlock(ElemType::F32); ++i)
        setBlockElement(b.data(), ElemType::F32, i,
                        static_cast<double>(value));
    return b;
}

class DoppTest : public ::testing::Test
{
  protected:
    DoppTest() : cache(mem, smallConfig(), nullptr) {}

    void
    expectInvariants()
    {
        std::string why;
        EXPECT_TRUE(cache.checkInvariants(&why)) << why;
    }

    MainMemory mem;
    DoppelgangerCache cache;
    BlockData buf;
};

} // namespace

TEST_F(DoppTest, MissFetchesFromMemory)
{
    seedBlock(mem, 0x1000, 0.5f);
    const auto r = cache.fetch(0x1000, buf.data());
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, cache.config().hitLatency + mem.latency());
    EXPECT_FLOAT_EQ(
        static_cast<float>(blockElement(buf.data(), ElemType::F32, 0)),
        0.5f);
    EXPECT_EQ(mem.reads(), 1u);
}

TEST_F(DoppTest, SecondFetchHits)
{
    seedBlock(mem, 0x1000, 0.5f);
    cache.fetch(0x1000, buf.data());
    const auto r = cache.fetch(0x1000, buf.data());
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, cache.config().hitLatency);
    EXPECT_EQ(mem.reads(), 1u);
}

TEST_F(DoppTest, SimilarBlocksShareOneDataEntry)
{
    seedBlock(mem, 0x1000, 0.5f);
    seedBlock(mem, 0x2000, 0.5f);
    cache.fetch(0x1000, buf.data());
    cache.fetch(0x2000, buf.data());
    EXPECT_EQ(cache.tagCount(), 2u);
    EXPECT_EQ(cache.dataCount(), 1u);
    EXPECT_TRUE(cache.sameDataEntry(0x1000, 0x2000));
    EXPECT_EQ(cache.tagsSharingWith(0x1000), 2u);
    expectInvariants();
}

TEST_F(DoppTest, DissimilarBlocksGetOwnEntries)
{
    seedBlock(mem, 0x1000, 0.1f);
    seedBlock(mem, 0x2000, 0.9f);
    cache.fetch(0x1000, buf.data());
    cache.fetch(0x2000, buf.data());
    EXPECT_EQ(cache.tagCount(), 2u);
    EXPECT_EQ(cache.dataCount(), 2u);
    EXPECT_FALSE(cache.sameDataEntry(0x1000, 0x2000));
    expectInvariants();
}

TEST_F(DoppTest, MissForwardsExactDataButStoresDoppelganger)
{
    // Sec 3.3: the requester gets the fetched values; the stored block
    // is the first-arrived similar one.
    seedBlock(mem, 0x1000, 0.5000f);
    seedBlock(mem, 0x2000, 0.500005f); // within one 14-bit bin
    cache.fetch(0x1000, buf.data());
    cache.fetch(0x2000, buf.data());
    // The miss response carries the exact value...
    EXPECT_FLOAT_EQ(
        static_cast<float>(blockElement(buf.data(), ElemType::F32, 0)),
        0.500005f);
    ASSERT_TRUE(cache.sameDataEntry(0x1000, 0x2000));
    // ...but a subsequent hit serves the doppelgänger (block 1's data).
    cache.fetch(0x2000, buf.data());
    EXPECT_FLOAT_EQ(
        static_cast<float>(blockElement(buf.data(), ElemType::F32, 0)),
        0.5000f);
}

TEST_F(DoppTest, MapValueStoredInTag)
{
    seedBlock(mem, 0x1000, 0.5f);
    cache.fetch(0x1000, buf.data());
    const auto map = cache.mapOf(0x1000);
    ASSERT_TRUE(map.has_value());
    MapParams p;
    p.mapBits = 14;
    p.type = ElemType::F32;
    p.minValue = 0.0;
    p.maxValue = 1.0;
    EXPECT_EQ(*map, computeMap(makeBlock(0.5f).data(), p));
}

TEST_F(DoppTest, WritebackSameMapSetsDirtyOnly)
{
    seedBlock(mem, 0x1000, 0.5f);
    seedBlock(mem, 0x2000, 0.5f);
    cache.fetch(0x1000, buf.data());
    cache.fetch(0x2000, buf.data());

    // A write that barely changes the values: map unchanged, data
    // entry untouched (Sec 3.4 "silent store").
    const BlockData nearly = makeBlock(0.50001f);
    cache.writeback(0x1000, nearly.data());
    EXPECT_EQ(cache.dataCount(), 1u);
    ASSERT_NE(cache.peekBlock(0x1000), nullptr);
    EXPECT_FLOAT_EQ(static_cast<float>(blockElement(
                        cache.peekBlock(0x1000), ElemType::F32, 0)),
                    0.5f);
    expectInvariants();
}

TEST_F(DoppTest, WritebackNewMapMovesToExistingEntry)
{
    seedBlock(mem, 0x1000, 0.2f);
    seedBlock(mem, 0x2000, 0.8f);
    cache.fetch(0x1000, buf.data());
    cache.fetch(0x2000, buf.data());
    ASSERT_EQ(cache.dataCount(), 2u);

    // Rewrite block 1 with values similar to block 2: its tag moves to
    // block 2's list and the written values are dropped (Sec 3.4).
    const BlockData newData = makeBlock(0.80001f);
    cache.writeback(0x1000, newData.data());
    EXPECT_TRUE(cache.sameDataEntry(0x1000, 0x2000));
    EXPECT_EQ(cache.dataCount(), 1u); // old sole-tag entry freed
    EXPECT_FLOAT_EQ(static_cast<float>(blockElement(
                        cache.peekBlock(0x1000), ElemType::F32, 0)),
                    0.8f);
    expectInvariants();
}

TEST_F(DoppTest, WritebackNewMapAllocatesWhenNoSimilar)
{
    seedBlock(mem, 0x1000, 0.2f);
    cache.fetch(0x1000, buf.data());
    const BlockData newData = makeBlock(0.6f);
    cache.writeback(0x1000, newData.data());
    EXPECT_EQ(cache.dataCount(), 1u);
    EXPECT_FLOAT_EQ(static_cast<float>(blockElement(
                        cache.peekBlock(0x1000), ElemType::F32, 0)),
                    0.6f);
    expectInvariants();
}

TEST_F(DoppTest, WritebackKeepsSharedEntryWhenOthersRemain)
{
    seedBlock(mem, 0x1000, 0.2f);
    seedBlock(mem, 0x2000, 0.2f);
    cache.fetch(0x1000, buf.data());
    cache.fetch(0x2000, buf.data());
    ASSERT_EQ(cache.dataCount(), 1u);

    const BlockData moved = makeBlock(0.9f);
    cache.writeback(0x1000, moved.data());
    // 0x2000 still uses the old entry; 0x1000 got a new one.
    EXPECT_EQ(cache.dataCount(), 2u);
    EXPECT_FALSE(cache.sameDataEntry(0x1000, 0x2000));
    EXPECT_FLOAT_EQ(static_cast<float>(blockElement(
                        cache.peekBlock(0x2000), ElemType::F32, 0)),
                    0.2f);
    expectInvariants();
}

TEST_F(DoppTest, DirtyTagWritesSharedDataToMemoryOnEvict)
{
    seedBlock(mem, 0x1000, 0.3f);
    cache.fetch(0x1000, buf.data());
    const BlockData dirty = makeBlock(0.7f);
    cache.writeback(0x1000, dirty.data());
    cache.flush();
    // Memory now holds the data-entry value for 0x1000.
    BlockData back;
    mem.peek(0x1000, back.data(), blockBytes);
    EXPECT_FLOAT_EQ(
        static_cast<float>(blockElement(back.data(), ElemType::F32, 0)),
        0.7f);
    expectInvariants();
}

TEST_F(DoppTest, CleanEvictionDoesNotWriteMemory)
{
    seedBlock(mem, 0x1000, 0.3f);
    cache.fetch(0x1000, buf.data());
    mem.resetStats();
    cache.flush();
    EXPECT_EQ(mem.writes(), 0u);
}

TEST_F(DoppTest, DirtySharedEntryWritesBackEveryDirtyTagAddress)
{
    // Two tags share one entry; only one is dirty. Evicting the data
    // entry writes back exactly the dirty tag's address (Sec 3.5).
    seedBlock(mem, 0x1000, 0.4f);
    seedBlock(mem, 0x2000, 0.4f);
    cache.fetch(0x1000, buf.data());
    cache.fetch(0x2000, buf.data());
    cache.writeback(0x2000, makeBlock(0.40002f).data()); // dirty, same map
    mem.resetStats();
    cache.flush();
    EXPECT_EQ(mem.writes(), 1u);
    BlockData back;
    mem.peek(0x2000, back.data(), blockBytes);
    EXPECT_FLOAT_EQ(
        static_cast<float>(blockElement(back.data(), ElemType::F32, 0)),
        0.4f); // the shared entry's value, not the dropped write
}

TEST(DoppTagEviction, SoleTagEvictionFreesDataEntry)
{
    // Fill one tag set (16 ways) plus one more mapping to it: the LRU
    // tag is evicted; each block here is dissimilar so each owns its
    // data entry. The data array is sized large enough that no data-
    // side pressure interferes. Tag set count is 4 -> addresses
    // 0x40 * (4*k) share set 0.
    MainMemory mem;
    DoppConfig cfg = smallConfig();
    cfg.dataEntries = 64;
    cfg.dataWays = 4;
    DoppelgangerCache cache(mem, cfg, nullptr);
    BlockData buf;

    const unsigned sets = 4;
    for (unsigned k = 0; k <= 16; ++k) {
        const Addr a = static_cast<Addr>(k) * sets * blockBytes;
        seedBlock(mem, a, 0.05f + 0.055f * static_cast<float>(k));
        cache.fetch(a, buf.data());
    }
    EXPECT_EQ(cache.tagCount(), 16u);
    EXPECT_FALSE(cache.contains(0x0)); // LRU victim gone
    EXPECT_EQ(cache.dataCount(), cache.tagCount());
    std::string why;
    EXPECT_TRUE(cache.checkInvariants(&why)) << why;
}

TEST(DoppTagEviction, SharedEntrySurvivesOneTagEviction)
{
    // 0x0 and an address in a different tag set share a data entry;
    // evicting 0x0's tag must keep the entry alive for the other.
    MainMemory mem;
    DoppConfig cfg = smallConfig();
    cfg.dataEntries = 64;
    cfg.dataWays = 4;
    DoppelgangerCache cache(mem, cfg, nullptr);
    BlockData buf;

    const unsigned sets = 4;
    seedBlock(mem, 0x0, 0.5f);
    seedBlock(mem, blockBytes, 0.5f); // tag set 1, same map
    cache.fetch(0x0, buf.data());
    cache.fetch(blockBytes, buf.data());
    ASSERT_EQ(cache.dataCount(), 1u);

    // Thrash tag set 0 with dissimilar blocks to evict 0x0.
    for (unsigned k = 1; k <= 16; ++k) {
        const Addr a = static_cast<Addr>(k) * sets * blockBytes;
        seedBlock(mem, a, 0.02f + 0.009f * static_cast<float>(k));
        cache.fetch(a, buf.data());
    }
    EXPECT_FALSE(cache.contains(0x0));
    EXPECT_TRUE(cache.contains(blockBytes));
    EXPECT_EQ(cache.tagsSharingWith(blockBytes), 1u);
    std::string why;
    EXPECT_TRUE(cache.checkInvariants(&why)) << why;
}

TEST_F(DoppTest, DataEvictionInvalidatesAllLinkedTags)
{
    // Fill a data set (4 ways) with dissimilar values whose maps land
    // in the same data set is hard to force with hashing; instead fill
    // the whole data array (16 entries) and keep inserting: some data
    // eviction must invalidate its linked tags.
    for (unsigned k = 0; k < 40; ++k) {
        const Addr a = static_cast<Addr>(k + 1) * blockBytes;
        seedBlock(mem, a, 0.012f * static_cast<float>(k));
        cache.fetch(a, buf.data());
        expectInvariants();
    }
    EXPECT_LE(cache.dataCount(), 16u);
    EXPECT_GT(cache.stats().dataEvictions, 0u);
    // Every surviving tag must resolve (checked by invariants).
}

TEST_F(DoppTest, StatsCountFetchesAndMapGens)
{
    seedBlock(mem, 0x1000, 0.5f);
    cache.fetch(0x1000, buf.data());
    cache.fetch(0x1000, buf.data());
    cache.writeback(0x1000, makeBlock(0.5f).data());
    const LlcStats &s = cache.stats();
    EXPECT_EQ(s.fetches, 2u);
    EXPECT_EQ(s.fetchHits, 1u);
    EXPECT_EQ(s.fetchMisses, 1u);
    EXPECT_EQ(s.writebacksIn, 1u);
    EXPECT_EQ(s.mapGens, 2u); // one on insert, one on writeback
}

TEST_F(DoppTest, BackInvalidationSupersedesSharedData)
{
    seedBlock(mem, 0x1000, 0.3f);
    cache.fetch(0x1000, buf.data());
    cache.writeback(0x1000, makeBlock(0.30001f).data()); // dirty

    // Hierarchy hook reports a dirty private copy with newer data.
    const BlockData privateCopy = makeBlock(0.99f);
    cache.setBackInvalidate([&](Addr addr, u8 *data) {
        EXPECT_EQ(addr, 0x1000u);
        std::memcpy(data, privateCopy.data(), blockBytes);
        return true;
    });
    cache.flush();
    BlockData back;
    mem.peek(0x1000, back.data(), blockBytes);
    EXPECT_FLOAT_EQ(
        static_cast<float>(blockElement(back.data(), ElemType::F32, 0)),
        0.99f);
}

TEST_F(DoppTest, ContainsAndPeek)
{
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_EQ(cache.peekBlock(0x1000), nullptr);
    seedBlock(mem, 0x1000, 0.5f);
    cache.fetch(0x1000, buf.data());
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_NE(cache.peekBlock(0x1000), nullptr);
}

TEST_F(DoppTest, ForEachBlockVisitsEveryTag)
{
    seedBlock(mem, 0x1000, 0.5f);
    seedBlock(mem, 0x2000, 0.5f);
    seedBlock(mem, 0x3000, 0.9f);
    cache.fetch(0x1000, buf.data());
    cache.fetch(0x2000, buf.data());
    cache.fetch(0x3000, buf.data());
    unsigned visited = 0;
    cache.forEachBlock([&](const LlcBlockInfo &info) {
        ++visited;
        EXPECT_TRUE(info.approx);
        EXPECT_NE(info.data, nullptr);
    });
    EXPECT_EQ(visited, 3u);
}

TEST_F(DoppTest, FlushEmptiesEverything)
{
    seedBlock(mem, 0x1000, 0.5f);
    cache.fetch(0x1000, buf.data());
    cache.flush();
    EXPECT_EQ(cache.tagCount(), 0u);
    EXPECT_EQ(cache.dataCount(), 0u);
    EXPECT_FALSE(cache.contains(0x1000));
}

TEST_F(DoppTest, RegistryDrivesMapParameters)
{
    // Same bytes, different declared ranges via a registry: coarse
    // range merges, tight range separates.
    ApproxRegistry reg;
    ApproxRegion wide;
    wide.base = 0x10000;
    wide.size = 0x2000; // covers both 0x10000 and 0x11000
    wide.type = ElemType::F32;
    wide.minValue = -1000.0;
    wide.maxValue = 1000.0;
    wide.name = "wide";
    reg.add(wide);

    DoppelgangerCache c2(mem, smallConfig(), &reg);
    seedBlock(mem, 0x10000, 0.2f);
    seedBlock(mem, 0x11000, 0.21f); // within one wide-range bin
    c2.fetch(0x10000, buf.data());
    c2.fetch(0x11000, buf.data());
    EXPECT_TRUE(c2.sameDataEntry(0x10000, 0x11000));

    // Under the tight default range, these would be distinct.
    seedBlock(mem, 0x1000, 0.2f);
    seedBlock(mem, 0x2000, 0.21f);
    cache.fetch(0x1000, buf.data());
    cache.fetch(0x2000, buf.data());
    EXPECT_FALSE(cache.sameDataEntry(0x1000, 0x2000));
}

// ---------------------------------------------------------------------
// uniDoppelgänger (Sec 3.8)
// ---------------------------------------------------------------------

namespace
{

class UniDoppTest : public ::testing::Test
{
  protected:
    UniDoppTest()
    {
        ApproxRegion r;
        r.base = approxBase;
        r.size = 1 << 20;
        r.type = ElemType::F32;
        r.minValue = 0.0;
        r.maxValue = 1.0;
        r.name = "approx";
        reg.add(r);

        DoppConfig cfg = smallConfig();
        cfg.unified = true;
        cache = std::make_unique<DoppelgangerCache>(mem, cfg, &reg);
    }

    static constexpr Addr approxBase = 0x100000;
    static constexpr Addr preciseBase = 0x500000;

    MainMemory mem;
    ApproxRegistry reg;
    std::unique_ptr<DoppelgangerCache> cache;
    BlockData buf;
};

} // namespace

TEST_F(UniDoppTest, PreciseBlocksNeverShare)
{
    seedBlock(mem, preciseBase, 0.5f);
    seedBlock(mem, preciseBase + 0x1000, 0.5f);
    cache->fetch(preciseBase, buf.data());
    cache->fetch(preciseBase + 0x1000, buf.data());
    EXPECT_EQ(cache->tagCount(), 2u);
    EXPECT_EQ(cache->dataCount(), 2u);
    EXPECT_FALSE(cache->sameDataEntry(preciseBase,
                                      preciseBase + 0x1000));
    std::string why;
    EXPECT_TRUE(cache->checkInvariants(&why)) << why;
}

TEST_F(UniDoppTest, ApproxBlocksStillShare)
{
    seedBlock(mem, approxBase, 0.5f);
    seedBlock(mem, approxBase + 0x1000, 0.5f);
    cache->fetch(approxBase, buf.data());
    cache->fetch(approxBase + 0x1000, buf.data());
    EXPECT_EQ(cache->dataCount(), 1u);
    EXPECT_TRUE(
        cache->sameDataEntry(approxBase, approxBase + 0x1000));
}

TEST_F(UniDoppTest, PreciseWritebackUpdatesDataExactly)
{
    seedBlock(mem, preciseBase, 0.5f);
    cache->fetch(preciseBase, buf.data());
    cache->writeback(preciseBase, makeBlock(0.123f).data());
    cache->fetch(preciseBase, buf.data());
    EXPECT_FLOAT_EQ(
        static_cast<float>(blockElement(buf.data(), ElemType::F32, 0)),
        0.123f);
    EXPECT_EQ(cache->stats().mapGens, 0u); // Sec 3.8: no hashing
}

TEST_F(UniDoppTest, PreciseHasNoMapValue)
{
    seedBlock(mem, preciseBase, 0.5f);
    cache->fetch(preciseBase, buf.data());
    EXPECT_FALSE(cache->mapOf(preciseBase).has_value());
    seedBlock(mem, approxBase, 0.5f);
    cache->fetch(approxBase, buf.data());
    EXPECT_TRUE(cache->mapOf(approxBase).has_value());
}

TEST_F(UniDoppTest, MixedChurnKeepsInvariants)
{
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        const bool approx = rng.below(2) == 0;
        const Addr base = approx ? approxBase : preciseBase;
        const Addr a = base + rng.below(64) * blockBytes;
        if (rng.below(4) == 0) {
            cache->writeback(
                a, makeBlock(static_cast<float>(rng.uniform())).data());
        } else {
            cache->fetch(a, buf.data());
        }
    }
    std::string why;
    EXPECT_TRUE(cache->checkInvariants(&why)) << why;
}

TEST_F(UniDoppTest, PreciseDirtyEvictionWritesExactData)
{
    seedBlock(mem, preciseBase, 0.5f);
    cache->fetch(preciseBase, buf.data());
    cache->writeback(preciseBase, makeBlock(0.321f).data());
    cache->flush();
    BlockData back;
    mem.peek(preciseBase, back.data(), blockBytes);
    EXPECT_FLOAT_EQ(
        static_cast<float>(blockElement(back.data(), ElemType::F32, 0)),
        0.321f);
}

// ---------------------------------------------------------------------
// Randomized property test: functional consistency + invariants under
// heavy churn, for both indexing modes and several geometries.
// ---------------------------------------------------------------------

namespace
{

// googletest names each instance after the raw bytes of its parameter,
// so the struct must have no padding: a bool here would leave three
// indeterminate bytes in every test name. hashedIndex is 0 or 1.
struct ChurnParams
{
    u32 tagEntries;
    u32 dataEntries;
    u32 hashedIndex;
    unsigned mapBits;
};

class DoppChurnTest : public ::testing::TestWithParam<ChurnParams>
{
};

} // namespace

TEST_P(DoppChurnTest, InvariantsHoldUnderRandomChurn)
{
    const ChurnParams param = GetParam();
    MainMemory mem;
    DoppConfig cfg;
    cfg.tagEntries = param.tagEntries;
    cfg.tagWays = 16;
    cfg.dataEntries = param.dataEntries;
    cfg.dataWays = 4;
    cfg.mapBits = param.mapBits;
    cfg.hashDataSetIndex = param.hashedIndex != 0;
    DoppelgangerCache cache(mem, cfg, nullptr);

    Rng rng(param.tagEntries * 31 + param.mapBits);
    BlockData buf;
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng.below(256) * blockBytes;
        const int op = static_cast<int>(rng.below(10));
        if (op < 6) {
            cache.fetch(a, buf.data());
        } else if (op < 9) {
            BlockData w;
            for (unsigned e = 0; e < 16; ++e)
                setBlockElement(w.data(), ElemType::F32, e,
                                rng.uniform());
            cache.writeback(a, w.data());
        } else {
            cache.flush();
        }
        if (i % 100 == 0) {
            std::string why;
            ASSERT_TRUE(cache.checkInvariants(&why))
                << why << " at op " << i;
        }
    }
    std::string why;
    EXPECT_TRUE(cache.checkInvariants(&why)) << why;
    // Data entries never outnumber tags.
    EXPECT_LE(cache.dataCount(), cache.tagCount());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DoppChurnTest,
    ::testing::Values(ChurnParams{64, 16, 1, 14},
                      ChurnParams{64, 16, 0, 14},
                      ChurnParams{128, 32, 1, 12},
                      ChurnParams{128, 32, 0, 12},
                      ChurnParams{64, 48, 1, 8},
                      ChurnParams{256, 64, 1, 16}));

// ---------------------------------------------------------------------
// The defining property: two resident blocks share one data entry
// exactly when their maps are equal (Sec 3.7).
// ---------------------------------------------------------------------

TEST(DoppProperty, SharingIffMapsEqual)
{
    MapParams params;
    params.mapBits = 14;
    params.type = ElemType::F32;
    params.minValue = 0.0;
    params.maxValue = 1.0;

    Rng rng(2718);
    for (int trial = 0; trial < 200; ++trial) {
        MainMemory mem;
        DoppConfig cfg = smallConfig();
        cfg.dataEntries = 64; // no capacity pressure
        cfg.dataWays = 4;
        DoppelgangerCache cache(mem, cfg, nullptr);

        // Two blocks whose values are near each other often enough to
        // exercise both outcomes.
        const float base = static_cast<float>(rng.uniform());
        const float other = static_cast<float>(
            base + rng.uniform(-2e-4, 2e-4));
        BlockData a = makeBlock(base);
        BlockData b = makeBlock(std::clamp(other, 0.0f, 1.0f));
        mem.poke(0x1000, a.data(), blockBytes);
        mem.poke(0x2000, b.data(), blockBytes);

        BlockData buf;
        cache.fetch(0x1000, buf.data());
        cache.fetch(0x2000, buf.data());

        const bool mapsEqual = computeMap(a.data(), params) ==
            computeMap(b.data(), params);
        EXPECT_EQ(cache.sameDataEntry(0x1000, 0x2000), mapsEqual)
            << "trial " << trial << " base " << base << " other "
            << other;
    }
}

// ---------------------------------------------------------------------
// Tag-count-aware data replacement (Sec 3.5 future work).
// ---------------------------------------------------------------------

TEST(DoppTagCountAware, PrefersSparselySharedVictims)
{
    // Build a full data set containing one heavily shared entry and
    // several sole-tag entries; the tag-count-aware policy must evict
    // a sole-tag entry even when the shared one is the LRU.
    MainMemory mem;
    DoppConfig cfg = smallConfig();
    cfg.dataEntries = 4; // a single 4-way data set
    cfg.dataWays = 4;
    cfg.tagCountAwareData = true;
    DoppelgangerCache cache(mem, cfg, nullptr);
    BlockData buf;

    // Three tags share the first entry (inserted first => LRU).
    for (Addr a : {0x0ULL, 0x1000ULL, 0x2000ULL}) {
        seedBlock(mem, a, 0.5f);
        cache.fetch(a, buf.data());
    }
    ASSERT_EQ(cache.tagsSharingWith(0x0), 3u);
    // Three sole-tag entries fill the rest of the set.
    const float singles[3] = {0.1f, 0.3f, 0.9f};
    for (int i = 0; i < 3; ++i) {
        seedBlock(mem, 0x4000 + i * 0x1000,
                  singles[static_cast<size_t>(i)]);
        cache.fetch(0x4000 + static_cast<Addr>(i) * 0x1000,
                    buf.data());
    }
    ASSERT_EQ(cache.dataCount(), 4u);

    // A new dissimilar block forces a data eviction.
    seedBlock(mem, 0x8000, 0.7f);
    cache.fetch(0x8000, buf.data());

    // The shared entry (and its three tags) must have survived.
    EXPECT_TRUE(cache.contains(0x0));
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_TRUE(cache.contains(0x2000));
    EXPECT_EQ(cache.tagsSharingWith(0x0), 3u);
    std::string why;
    EXPECT_TRUE(cache.checkInvariants(&why)) << why;
}

TEST(DoppTagCountAware, LruEvictsSharedEntryInstead)
{
    // Identical setup without the policy: plain LRU evicts the shared
    // entry and all three tags go with it.
    MainMemory mem;
    DoppConfig cfg = smallConfig();
    cfg.dataEntries = 4;
    cfg.dataWays = 4;
    cfg.tagCountAwareData = false;
    DoppelgangerCache cache(mem, cfg, nullptr);
    BlockData buf;

    for (Addr a : {0x0ULL, 0x1000ULL, 0x2000ULL}) {
        seedBlock(mem, a, 0.5f);
        cache.fetch(a, buf.data());
    }
    for (int i = 0; i < 3; ++i) {
        seedBlock(mem, 0x4000 + i * 0x1000,
                  0.1f + 0.3f * static_cast<float>(i));
        cache.fetch(0x4000 + static_cast<Addr>(i) * 0x1000,
                    buf.data());
    }
    seedBlock(mem, 0x8000, 0.75f);
    cache.fetch(0x8000, buf.data());

    EXPECT_FALSE(cache.contains(0x0));
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_FALSE(cache.contains(0x2000));
}

TEST(DoppTagCountAware, CountsAboveStatsCapForHeavilySharedEntries)
{
    // Regression: linkedTagCount used to saturate at 64 even for
    // victim selection, so two entries with 100 and 70 linked tags
    // compared equal and LRU broke the "tie" — evicting the costlier
    // entry. The policy must count up to tagEntries.
    MainMemory mem;
    DoppConfig cfg;
    cfg.tagEntries = 512;
    cfg.tagWays = 16;
    cfg.dataEntries = 2; // a single 2-way data set
    cfg.dataWays = 2;
    cfg.tagCountAwareData = true;
    DoppelgangerCache cache(mem, cfg, nullptr);
    BlockData buf;

    // 100 tags share entry A (inserted first => LRU victim), then 70
    // share entry B. Both are far beyond the 64-entry stats cap.
    Addr next = 0;
    for (int i = 0; i < 100; ++i, next += blockBytes) {
        seedBlock(mem, next, 0.5f);
        cache.fetch(next, buf.data());
    }
    const Addr firstB = next;
    for (int i = 0; i < 70; ++i, next += blockBytes) {
        seedBlock(mem, next, 0.3f);
        cache.fetch(next, buf.data());
    }
    ASSERT_EQ(cache.dataCount(), 2u);
    ASSERT_EQ(cache.tagsSharingWith(0x0), 100u);
    ASSERT_EQ(cache.tagsSharingWith(firstB), 70u);

    // A third dissimilar block forces a data eviction: the 70-tag
    // entry must go, not the LRU 100-tag one.
    seedBlock(mem, next, 0.8f);
    cache.fetch(next, buf.data());

    EXPECT_TRUE(cache.contains(0x0));
    EXPECT_EQ(cache.tagsSharingWith(0x0), 100u);
    EXPECT_FALSE(cache.contains(firstB));
    std::string why;
    EXPECT_TRUE(cache.checkInvariants(&why)) << why;
}

TEST(DoppTagCountAware, InvariantsUnderChurn)
{
    MainMemory mem;
    DoppConfig cfg = smallConfig();
    cfg.tagCountAwareData = true;
    DoppelgangerCache cache(mem, cfg, nullptr);
    Rng rng(91);
    BlockData buf;
    for (int i = 0; i < 1500; ++i) {
        const Addr a = rng.below(200) * blockBytes;
        if (rng.below(4) == 0) {
            cache.writeback(
                a, makeBlock(static_cast<float>(rng.uniform())).data());
        } else {
            cache.fetch(a, buf.data());
        }
    }
    std::string why;
    EXPECT_TRUE(cache.checkInvariants(&why)) << why;
}


/**
 * ISSUE acceptance: 10k operations of fetch/writeback/flush churn with
 * metadata faults injected at aggressive rates. checkInvariants must
 * hold after every single operation (selfCheckAndRepair runs inside the
 * injection hook, so any operation that leaves the structure broken
 * fails immediately), and every detected corruption must be repaired.
 */
TEST(DoppFaultStress, TenThousandOpsWithMetadataFaults)
{
    MainMemory mem;
    DoppelgangerCache cache(mem, smallConfig(), nullptr);
    FaultConfig fc;
    fc.seed = 0x10c0de;
    fc.dataRate = 0.02;
    fc.tagMetaRate = 0.05;
    fc.mtagMetaRate = 0.05;
    FaultInjector fi(fc);
    cache.setFaultInjector(&fi);

    Rng rng(314159);
    BlockData buf;
    std::string why;
    for (int i = 0; i < 10000; ++i) {
        const Addr a = (rng.below(300) + 1) * blockBytes;
        switch (rng.below(16)) {
          case 0:
            cache.flush();
            break;
          case 1:
          case 2:
          case 3:
            cache.writeback(
                a, makeBlock(static_cast<float>(rng.uniform())).data());
            break;
          default:
            seedBlock(mem, a, static_cast<float>(rng.uniform()));
            cache.fetch(a, buf.data());
            break;
        }
        ASSERT_TRUE(cache.checkInvariants(&why)) << "op " << i << ": "
                                                 << why;
    }

    EXPECT_GT(fi.stats().totalInjected(), 200u);
    EXPECT_GT(fi.stats().detected, 0u);
    EXPECT_EQ(fi.stats().detected, fi.stats().repairs);
    EXPECT_EQ(cache.stats().faultsDetected, fi.stats().detected);
    EXPECT_EQ(cache.stats().faultsRepaired, fi.stats().repairs);
}

// ---------------------------------------------------------------------
// MapParams caching and kernel determinism.
// ---------------------------------------------------------------------

TEST(DoppParamCacheDeathTest, RegistryMutationAfterRunStartPanics)
{
    // The per-region MapParams cache snapshots the registry at the
    // first access (the paper's start-of-application range transfer,
    // Sec 4.1); annotating afterwards is a harness bug and must trip
    // the generation assert rather than serve stale parameters.
    MainMemory mem;
    ApproxRegistry reg;
    ApproxRegion r;
    r.base = 0x0;
    r.size = 0x10000;
    r.type = ElemType::F32;
    r.minValue = 0.0;
    r.maxValue = 1.0;
    r.name = "a";
    reg.add(r);

    DoppelgangerCache cache(mem, smallConfig(), &reg);
    BlockData buf;
    cache.fetch(0x1000, buf.data()); // builds the cache

    ApproxRegion late = r;
    late.base = 0x100000;
    late.name = "late";
    reg.add(late);
    EXPECT_DEATH(cache.fetch(0x2000, buf.data()), "mutated");
}

TEST(DoppKernelDeterminism, SnapshotEqualityKernelVsGenericMixedTypes)
{
    // Full StatRegistry snapshot equality — not just hit counts —
    // between the monomorphized kernel path and the generic
    // blockElement() path on a mixed F32/I16/F64 access stream. Any
    // arithmetic divergence would change a map somewhere, shift
    // sharing, and show up in evictions/writebacks/mapGens.
    const auto run = [](bool generic) {
        MainMemory mem;
        ApproxRegistry reg;
        const struct
        {
            Addr base;
            ElemType type;
            double lo, hi;
        } regions[] = {
            {0x000000, ElemType::F32, 0.0, 1.0},
            {0x100000, ElemType::I16, -1000.0, 1000.0},
            {0x200000, ElemType::F64, -1.0, 1.0},
        };
        for (const auto &rr : regions) {
            ApproxRegion r;
            r.base = rr.base;
            r.size = 0x10000;
            r.type = rr.type;
            r.minValue = rr.lo;
            r.maxValue = rr.hi;
            r.name = elemTypeName(rr.type);
            reg.add(r);
        }

        DoppConfig cfg = smallConfig();
        if (generic) {
            cfg.mapOverride = [](const u8 *block, const MapParams &p) {
                return computeMapComponentsGeneric(block, p).combined;
            };
        }
        StatRegistry stats;
        DoppelgangerCache cache(mem, cfg, &reg, &stats, "llc");

        Rng rng(0xD1CE);
        BlockData buf;
        for (int i = 0; i < 6000; ++i) {
            const auto &rr = regions[rng.below(3)];
            const Addr addr =
                rr.base + rng.below(256) * blockBytes;
            if (rng.below(4) == 0) {
                for (auto &byte : buf)
                    byte = static_cast<u8>(rng.below(256));
                cache.writeback(addr, buf.data());
            } else {
                cache.fetch(addr, buf.data());
            }
        }
        std::string why;
        EXPECT_TRUE(cache.checkInvariants(&why)) << why;
        return stats.snapshot();
    };

    const StatSnapshot kernel = run(false);
    const StatSnapshot generic = run(true);
    ASSERT_FALSE(kernel.empty());
    EXPECT_GT(kernel.counter("llc.mapGens"), 0u);
    EXPECT_TRUE(kernel == generic)
        << "kernel:\n" << kernel.json() << "\ngeneric:\n"
        << generic.json();
}

} // namespace dopp
