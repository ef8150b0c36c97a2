/**
 * @file
 * Unit tests for the set-associative directory, the test-only
 * reference array it must match, and the address slicer.
 */

#include <gtest/gtest.h>

#include <set>

#include "set_assoc_array.hh"

namespace dopp
{

namespace
{

struct Entry
{
    bool valid = false;
    u64 tag = 0;
    int payload = 0;
};

} // namespace

TEST(SetAssocArray, Geometry)
{
    SetAssocArray<Entry> arr(16, 4);
    EXPECT_EQ(arr.sets(), 16u);
    EXPECT_EQ(arr.ways(), 4u);
    EXPECT_EQ(arr.validCount(), 0u);
}

TEST(SetAssocArray, NonPowerOfTwoSetsAllowed)
{
    SetAssocArray<Entry> arr(1536, 16);
    EXPECT_EQ(arr.sets(), 1536u);
}

TEST(SetAssocArrayDeathTest, ZeroSetsFatal)
{
    EXPECT_EXIT((SetAssocArray<Entry>(0, 4)),
                ::testing::ExitedWithCode(1), "non-zero");
}

TEST(SetAssocArrayDeathTest, ZeroWaysFatal)
{
    EXPECT_EXIT((SetAssocArray<Entry>(4, 0)),
                ::testing::ExitedWithCode(1), "associativity");
}

TEST(SetAssocArray, FindWay)
{
    SetAssocArray<Entry> arr(4, 2);
    EXPECT_EQ(arr.findWay(0, 42), -1);
    arr.at(0, 1).valid = true;
    arr.at(0, 1).tag = 42;
    EXPECT_EQ(arr.findWay(0, 42), 1);
    EXPECT_EQ(arr.findWay(1, 42), -1);   // wrong set
    EXPECT_EQ(arr.findWay(0, 43), -1);   // wrong tag
}

TEST(SetAssocArray, InvalidEntriesNotFound)
{
    SetAssocArray<Entry> arr(4, 2);
    arr.at(0, 0).tag = 7; // valid stays false
    EXPECT_EQ(arr.findWay(0, 7), -1);
}

TEST(SetAssocArray, VictimPrefersInvalid)
{
    SetAssocArray<Entry> arr(1, 4);
    arr.at(0, 0).valid = true;
    arr.at(0, 2).valid = true;
    const u32 victim = arr.victimWay(0);
    EXPECT_TRUE(victim == 1 || victim == 3);
}

TEST(SetAssocArray, LruEvictsLeastRecentlyUsed)
{
    SetAssocArray<Entry> arr(1, 4, ReplPolicy::LRU);
    for (u32 w = 0; w < 4; ++w) {
        arr.at(0, w).valid = true;
        arr.at(0, w).tag = w;
        arr.touchInsert(0, w);
    }
    // Touch everything but way 2.
    arr.touch(0, 0);
    arr.touch(0, 1);
    arr.touch(0, 3);
    EXPECT_EQ(arr.victimWay(0), 2u);
}

TEST(SetAssocArray, LruTouchReordersVictims)
{
    SetAssocArray<Entry> arr(1, 2, ReplPolicy::LRU);
    arr.at(0, 0).valid = true;
    arr.at(0, 1).valid = true;
    arr.touchInsert(0, 0);
    arr.touchInsert(0, 1);
    EXPECT_EQ(arr.victimWay(0), 0u);
    arr.touch(0, 0);
    EXPECT_EQ(arr.victimWay(0), 1u);
}

TEST(SetAssocArray, FifoIgnoresTouch)
{
    SetAssocArray<Entry> arr(1, 2, ReplPolicy::FIFO);
    arr.at(0, 0).valid = true;
    arr.at(0, 1).valid = true;
    arr.touchInsert(0, 0);
    arr.touchInsert(0, 1);
    arr.touch(0, 0); // FIFO must not reorder
    EXPECT_EQ(arr.victimWay(0), 0u);
}

TEST(SetAssocArray, RandomVictimIsValidWay)
{
    SetAssocArray<Entry> arr(1, 4, ReplPolicy::RANDOM);
    for (u32 w = 0; w < 4; ++w)
        arr.at(0, w).valid = true;
    std::set<u32> seen;
    for (int i = 0; i < 200; ++i) {
        const u32 v = arr.victimWay(0);
        EXPECT_LT(v, 4u);
        seen.insert(v);
    }
    // Uniform-random over 4 ways should hit several distinct ways.
    EXPECT_GE(seen.size(), 3u);
}

TEST(SetAssocArray, ValidCount)
{
    SetAssocArray<Entry> arr(4, 4);
    arr.setValid(0, 0, true);
    arr.setValid(3, 3, true);
    EXPECT_EQ(arr.validCount(), 2u);
    EXPECT_TRUE(arr.at(0, 0).valid);
    EXPECT_TRUE(arr.at(3, 3).valid);
    arr.setValid(0, 0, false);
    EXPECT_EQ(arr.validCount(), 1u);
    EXPECT_FALSE(arr.at(0, 0).valid);
}

TEST(SetAssocArray, SetValidIsIdempotent)
{
    // The maintained counter only moves on actual transitions;
    // re-asserting the current state must not drift it.
    SetAssocArray<Entry> arr(4, 4);
    arr.setValid(1, 2, true);
    arr.setValid(1, 2, true);
    EXPECT_EQ(arr.validCount(), 1u);
    arr.setValid(1, 2, false);
    arr.setValid(1, 2, false);
    EXPECT_EQ(arr.validCount(), 0u);
    arr.setValid(2, 0, false); // never-valid entry stays a no-op
    EXPECT_EQ(arr.validCount(), 0u);
}

TEST(SetAssocArray, InvalidateAll)
{
    SetAssocArray<Entry> arr(4, 4);
    arr.setValid(1, 1, true);
    arr.setValid(2, 3, true);
    arr.touchInsert(1, 1);
    arr.invalidateAll();
    EXPECT_EQ(arr.validCount(), 0u);
    EXPECT_FALSE(arr.at(1, 1).valid);
    EXPECT_FALSE(arr.at(2, 3).valid);
}

TEST(AddrSlicer, RoundTrip)
{
    AddrSlicer s(1024);
    const Addr addrs[] = {0x0, 0x40, 0x12345640, 0xFFFFFFC0};
    for (Addr a : addrs) {
        const u32 set = s.set(a);
        const u64 tag = s.tag(a);
        EXPECT_EQ(s.addr(set, tag), blockAlign(a)) << std::hex << a;
        EXPECT_LT(set, 1024u);
    }
}

TEST(AddrSlicer, ConsecutiveBlocksDifferentSets)
{
    AddrSlicer s(64);
    EXPECT_NE(s.set(0), s.set(64));
    EXPECT_EQ(s.set(0), s.set(64 * 64)); // wraps after 64 sets
    EXPECT_NE(s.tag(0), s.tag(64 * 64));
}

TEST(AddrSlicer, SingleSet)
{
    AddrSlicer s(1);
    EXPECT_EQ(s.set(0xDEADBEC0), 0u);
    EXPECT_EQ(s.tag(0x40), 1u);
}

TEST(ReplPolicy, Names)
{
    EXPECT_STREQ(replPolicyName(ReplPolicy::LRU), "lru");
    EXPECT_STREQ(replPolicyName(ReplPolicy::FIFO), "fifo");
    EXPECT_STREQ(replPolicyName(ReplPolicy::RANDOM), "random");
}

// ---------------------------------------------------------------------
// SetAssocDir: the structure-of-arrays directory behind the optimized
// Doppelgänger hot path. Must make the exact same replacement
// decisions as SetAssocArray for any touch sequence.
// ---------------------------------------------------------------------

TEST(SetAssocDir, GeometryAndIndexing)
{
    SetAssocDir dir(16, 4);
    EXPECT_EQ(dir.sets(), 16u);
    EXPECT_EQ(dir.ways(), 4u);
    EXPECT_EQ(dir.index(0, 0), 0);
    EXPECT_EQ(dir.index(1, 0), 4);
    EXPECT_EQ(dir.index(15, 3), 63);
    EXPECT_EQ(dir.validCount(), 0u);
}

TEST(SetAssocDir, KeysFlagsAndValidity)
{
    SetAssocDir dir(2, 2);
    const i32 idx = dir.index(1, 1);
    EXPECT_FALSE(dir.valid(idx));
    dir.setKey(idx, 0xCAFE);
    dir.setValid(idx, true);
    EXPECT_TRUE(dir.valid(idx));
    EXPECT_EQ(dir.key(idx), 0xCAFEu);
    EXPECT_EQ(dir.validCount(), 1u);

    // Client flag bits are independent of the valid bit.
    dir.setFlag(idx, 2, true);
    EXPECT_TRUE(dir.flag(idx, 2));
    EXPECT_EQ(dir.flags(idx), SetAssocDir::kValid | 2);
    dir.setFlag(idx, 2, false);
    EXPECT_FALSE(dir.flag(idx, 2));
    EXPECT_TRUE(dir.valid(idx));

    // setValid is idempotent (count stays exact).
    dir.setValid(idx, true);
    EXPECT_EQ(dir.validCount(), 1u);
    dir.setValid(idx, false);
    dir.setValid(idx, false);
    EXPECT_EQ(dir.validCount(), 0u);
}

TEST(SetAssocDir, FindWaySkipsInvalidAndWrongKeys)
{
    SetAssocDir dir(1, 4);
    dir.setKey(dir.index(0, 1), 7);
    EXPECT_EQ(dir.findWay(0, 7), -1); // key set but not valid
    dir.setValid(dir.index(0, 1), true);
    EXPECT_EQ(dir.findWay(0, 7), 1);
    EXPECT_EQ(dir.findWay(0, 8), -1);
}

TEST(SetAssocDir, FindWayFlagsFiltersOnClientBits)
{
    // Two valid ways with the same key, one carrying client bit 2:
    // the filtered probe must be able to select either.
    SetAssocDir dir(1, 4);
    dir.setKey(dir.index(0, 0), 9);
    dir.setValid(dir.index(0, 0), true);
    dir.setKey(dir.index(0, 2), 9);
    dir.setValid(dir.index(0, 2), true);
    dir.setFlag(dir.index(0, 2), 2, true);

    const u8 all = SetAssocDir::kValid | 2;
    EXPECT_EQ(dir.findWayFlags(0, 9, all, SetAssocDir::kValid), 0);
    EXPECT_EQ(dir.findWayFlags(0, 9, all, all), 2);
    EXPECT_EQ(dir.findWayFlags(0, 10, all, all), -1);
}

TEST(SetAssocDir, VictimPrefersInvalidInWayOrder)
{
    SetAssocDir dir(1, 4);
    for (u32 w = 0; w < 4; ++w)
        dir.setValid(dir.index(0, w), true);
    dir.setValid(dir.index(0, 2), false);
    EXPECT_EQ(dir.victimWay(0), 2u);
}

TEST(SetAssocDir, ReplacementMatchesSetAssocArray)
{
    // Property: for one long random stream of inserts and touches the
    // directory and the template array must pick the same victims —
    // this is what makes the optimized engine's eviction sequence
    // bit-identical to the reference implementation's.
    for (ReplPolicy policy :
         {ReplPolicy::LRU, ReplPolicy::FIFO, ReplPolicy::RANDOM}) {
        SetAssocArray<Entry> arr(4, 4, policy);
        SetAssocDir dir(4, 4, policy);
        Rng rng(0x5E7A550C);
        for (int n = 0; n < 2000; ++n) {
            const u32 set = static_cast<u32>(rng.below(4));
            const u32 roll = static_cast<u32>(rng.below(10));
            if (roll < 6) {
                const u32 vArr = arr.victimWay(set);
                const u32 vDir = dir.victimWay(set);
                ASSERT_EQ(vArr, vDir)
                    << replPolicyName(policy) << " op " << n;
                arr.setValid(set, vArr, true);
                arr.touchInsert(set, vArr);
                dir.setValid(dir.index(set, vDir), true);
                dir.touchInsert(set, vDir);
            } else if (roll < 9) {
                const u32 way = static_cast<u32>(rng.below(4));
                if (arr.at(set, way).valid) {
                    arr.touch(set, way);
                    dir.touch(set, way);
                }
            } else {
                const u32 way = static_cast<u32>(rng.below(4));
                arr.setValid(set, way, false);
                dir.setValid(dir.index(set, way), false);
            }
            ASSERT_EQ(arr.validCount(), dir.validCount());
        }
    }
}

TEST(SetAssocDir, InvalidateAllClearsEverything)
{
    SetAssocDir dir(2, 2);
    for (u32 s = 0; s < 2; ++s) {
        for (u32 w = 0; w < 2; ++w) {
            dir.setValid(dir.index(s, w), true);
            dir.setFlag(dir.index(s, w), 4, true);
        }
    }
    EXPECT_EQ(dir.validCount(), 4u);
    dir.invalidateAll();
    EXPECT_EQ(dir.validCount(), 0u);
    for (u32 s = 0; s < 2; ++s) {
        for (u32 w = 0; w < 2; ++w) {
            EXPECT_FALSE(dir.valid(dir.index(s, w)));
            EXPECT_FALSE(dir.flag(dir.index(s, w), 4));
        }
    }
}

} // namespace dopp
