/**
 * @file
 * Deep coherence and inclusion tests for the 4-core hierarchy,
 * including the invariants the Doppelgänger LLC's multi-tag evictions
 * must not break: L2 ⊇ L1 per core, inclusive LLC (every privately
 * cached block has an LLC tag), precise-data exactness under churn on
 * the split organization, and writeback ordering.
 */

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/split_llc.hh"
#include "sim/hierarchy.hh"
#include "util/random.hh"

namespace dopp
{

namespace
{

/** Assert the hierarchy's coherence and inclusion invariants (L2 ⊇ L1
 * and LLC ⊇ L2 per core, directory exactness, single writer). */
void
expectInvariants(const MemorySystem &sys)
{
    std::string why;
    EXPECT_TRUE(sys.checkInvariants(&why)) << why;
}

} // namespace

TEST(Coherence, InclusionAfterSequentialFill)
{
    MainMemory mem;
    ConventionalLlc llc(mem, 256 * 1024, 16, 6, nullptr);
    MemorySystem sys(HierarchyConfig{}, llc, mem);
    u32 v = 0;
    for (u32 i = 0; i < 4000; ++i)
        sys.access(i % 4, i * 64, false, 4, &v);
    expectInvariants(sys);
}

TEST(Coherence, InclusionUnderRandomChurnConventional)
{
    MainMemory mem;
    ConventionalLlc llc(mem, 64 * 1024, 8, 6, nullptr); // small: evicts
    MemorySystem sys(HierarchyConfig{}, llc, mem);
    Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
        u32 v = static_cast<u32>(rng.next());
        sys.access(static_cast<CoreId>(rng.below(4)),
                   rng.below(4096) * 64, rng.below(2) == 0, 4, &v);
    }
    expectInvariants(sys);
}

TEST(Coherence, InclusionUnderRandomChurnSplitDopp)
{
    // The Doppelgänger's data evictions invalidate many tags at once;
    // back-invalidation must keep the private caches inside the LLC.
    MainMemory mem;
    ApproxRegistry reg;
    ApproxRegion r;
    r.base = 0;
    r.size = 1ULL << 22;
    r.type = ElemType::F32;
    r.minValue = 0.0;
    r.maxValue = 1.0;
    r.name = "all";
    reg.add(r);

    SplitLlcConfig cfg;
    cfg.preciseBytes = 64 * 1024;
    cfg.dopp.tagEntries = 512;
    cfg.dopp.dataEntries = 64;
    cfg.dopp.dataWays = 4;
    SplitLlc llc(mem, cfg, reg);
    MemorySystem sys(HierarchyConfig{}, llc, mem);

    Rng rng(32);
    for (int i = 0; i < 20000; ++i) {
        u32 v = static_cast<u32>(rng.next());
        sys.access(static_cast<CoreId>(rng.below(4)),
                   rng.below(2048) * 64, rng.below(2) == 0, 4, &v);
    }
    expectInvariants(sys);
    std::string why;
    EXPECT_TRUE(llc.doppelganger().checkInvariants(&why)) << why;
}

TEST(Coherence, PreciseDataExactUnderSplitDoppChurn)
{
    // The killer property of the split design: addresses outside every
    // annotated region must behave *exactly* like a precise cache, no
    // matter how hard the approximate side churns.
    MainMemory mem;
    ApproxRegistry reg;
    ApproxRegion r;
    r.base = 0;
    r.size = 1ULL << 20; // approx: [0, 1M)
    r.type = ElemType::F32;
    r.minValue = 0.0;
    r.maxValue = 1.0;
    r.name = "approx";
    reg.add(r);

    SplitLlcConfig cfg;
    cfg.preciseBytes = 64 * 1024;
    cfg.dopp.tagEntries = 512;
    cfg.dopp.dataEntries = 64;
    cfg.dopp.dataWays = 4;
    SplitLlc llc(mem, cfg, reg);
    MemorySystem sys(HierarchyConfig{}, llc, mem);

    const Addr preciseBase = 1ULL << 24;
    std::unordered_map<Addr, u32> reference;
    Rng rng(33);
    for (int i = 0; i < 30000; ++i) {
        const CoreId core = static_cast<CoreId>(rng.below(4));
        if (rng.below(3) == 0) {
            // Approximate-side churn (values may be corrupted; we
            // never check them).
            u32 v = static_cast<u32>(rng.next());
            sys.access(core, rng.below(8192) * 64,
                       rng.below(2) == 0, 4, &v);
        } else {
            const Addr a = preciseBase + rng.below(2048) * 4;
            if (rng.below(2) == 0) {
                u32 v = static_cast<u32>(rng.next());
                sys.access(core, a, true, 4, &v);
                reference[a] = v;
            } else {
                u32 v = 0;
                sys.access(core, a, false, 4, &v);
                const auto it = reference.find(a);
                ASSERT_EQ(v, it == reference.end() ? 0 : it->second)
                    << "precise data corrupted at op " << i;
            }
        }
    }
    expectInvariants(sys);
}

TEST(Coherence, WritebackOrderingAcrossCores)
{
    // Core 0 writes, cores 1..3 read in turn; each reader must see the
    // most recent write even though the block migrates through the
    // LLC-writeback path each time.
    MainMemory mem;
    ConventionalLlc llc(mem, 256 * 1024, 16, 6, nullptr);
    MemorySystem sys(HierarchyConfig{}, llc, mem);
    for (u32 round = 0; round < 50; ++round) {
        u32 v = round * 1000;
        sys.access(0, 0x5000, true, 4, &v);
        for (CoreId c = 1; c < 4; ++c) {
            u32 got = 0;
            sys.access(c, 0x5000, false, 4, &got);
            ASSERT_EQ(got, round * 1000) << "core " << c;
        }
    }
}

TEST(Coherence, FalseSharingWithinOneBlock)
{
    // Four cores write disjoint words of one block; all writes must
    // survive the ping-ponging.
    MainMemory mem;
    ConventionalLlc llc(mem, 256 * 1024, 16, 6, nullptr);
    MemorySystem sys(HierarchyConfig{}, llc, mem);
    for (u32 round = 0; round < 20; ++round) {
        for (CoreId c = 0; c < 4; ++c) {
            u32 v = round * 10 + c;
            sys.access(c, 0x7000 + c * 4, true, 4, &v);
        }
    }
    expectInvariants(sys);
    for (CoreId c = 0; c < 4; ++c) {
        u32 got = 0;
        sys.access((c + 1) % 4, 0x7000 + c * 4, false, 4, &got);
        EXPECT_EQ(got, 190u + c);
    }
}

TEST(Coherence, DrainPreservesEveryDirtyWord)
{
    MainMemory mem;
    ConventionalLlc llc(mem, 64 * 1024, 8, 6, nullptr);
    MemorySystem sys(HierarchyConfig{}, llc, mem);
    std::unordered_map<Addr, u32> reference;
    Rng rng(34);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = rng.below(4096) * 4;
        u32 v = static_cast<u32>(rng.next());
        sys.access(static_cast<CoreId>(rng.below(4)), a, true, 4, &v);
        reference[a] = v;
    }
    expectInvariants(sys);
    sys.drain();
    expectInvariants(sys);
    for (const auto &[a, expect] : reference) {
        u32 v = 0;
        mem.peek(a, &v, 4);
        ASSERT_EQ(v, expect) << std::hex << a;
    }
}

TEST(Coherence, UpgradeLatencyChargedOnce)
{
    MainMemory mem;
    ConventionalLlc llc(mem, 256 * 1024, 16, 6, nullptr);
    MemorySystem sys(HierarchyConfig{}, llc, mem);
    u32 v = 1;
    sys.access(0, 0x9000, false, 4, &v); // S in core 0
    sys.access(1, 0x9000, false, 4, &v); // S in cores 0,1

    // Core 0 upgrades: one remote-penalty charge on top of the L1 hit.
    const Tick lat = sys.access(0, 0x9000, true, 4, &v);
    EXPECT_EQ(lat, 1u + HierarchyConfig{}.remotePenalty);
    // Second write: already owner, plain L1-hit latency.
    const Tick lat2 = sys.access(0, 0x9000, true, 4, &v);
    EXPECT_EQ(lat2, 1u);
}

TEST(Coherence, ReadAfterRemoteWriteSeesLlcPath)
{
    MainMemory mem;
    ConventionalLlc llc(mem, 256 * 1024, 16, 6, nullptr);
    MemorySystem sys(HierarchyConfig{}, llc, mem);
    u32 v = 42;
    sys.access(0, 0xA000, true, 4, &v);
    const u64 writebacksBefore = llc.stats().writebacksIn;
    u32 got = 0;
    sys.access(1, 0xA000, false, 4, &got);
    EXPECT_EQ(got, 42u);
    // The dirty remote copy was written back through the LLC.
    EXPECT_GT(llc.stats().writebacksIn, writebacksBefore);
}

} // namespace dopp
