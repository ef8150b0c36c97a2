/**
 * @file
 * Tests for the exact-deduplication LLC baseline (a decoupled
 * Doppelgänger engine mapped by content hash) and the FNV hash.
 */

#include <gtest/gtest.h>

#include "compress/dedup.hh"
#include "core/doppelganger_cache.hh"
#include "fault/fault_injector.hh"
#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "util/hash.hh"
#include "util/random.hh"

namespace dopp
{

namespace
{

void
seedPattern(MainMemory &mem, Addr addr, u8 first, u8 rest)
{
    BlockData b;
    b.fill(rest);
    b[0] = first;
    mem.poke(addr, b.data(), blockBytes);
}

DoppConfig
smallDedup()
{
    DoppConfig cfg;
    cfg.tagEntries = 64;
    cfg.tagWays = 16;
    cfg.dataEntries = 32;
    cfg.dataWays = 4;
    cfg.mapOverride = dedupContentHash;
    return cfg;
}

/**
 * Dedup-table invariants: the engine's structural pass (every tag's
 * map resolves to a live data entry — the refcount underflow /
 * orphaned-entry detector) plus the hash-table consistency property
 * specific to dedup — the map stored for every resident block equals
 * the content hash of the bytes the cache serves for it. The hash
 * pass only holds while data is pristine, so it is skipped when
 * @p check_hashes is false (e.g. under data-fault injection, which
 * flips stored bytes on purpose).
 */
bool
dedupInvariantsHold(const DoppEngine &llc, std::string &why,
                    bool check_hashes = true)
{
    if (!llc.checkInvariants(&why))
        return false;
    if (!check_hashes)
        return true;
    // A resident block whose stored map is not the hash of its served
    // bytes would dedup against the wrong pool (and a later writeback
    // would unlink the wrong entry).
    bool ok = true;
    llc.forEachBlock([&](const LlcBlockInfo &info) {
        const auto map = llc.mapOf(info.addr);
        if (ok && map && *map != fnv1a64(info.data, blockBytes)) {
            ok = false;
            why = "dedup: stored map of a resident block is not the "
                  "content hash of its served bytes";
        }
    });
    return ok;
}

} // namespace

TEST(Fnv, DeterministicAndSensitive)
{
    const u8 a[4] = {1, 2, 3, 4};
    const u8 b[4] = {1, 2, 3, 5};
    EXPECT_EQ(fnv1a64(a, 4), fnv1a64(a, 4));
    EXPECT_NE(fnv1a64(a, 4), fnv1a64(b, 4));
    EXPECT_NE(fnv1a64(a, 4), fnv1a64(a, 3));
}

TEST(DedupLlc, IdenticalBlocksShareOneEntry)
{
    MainMemory mem;
    DoppelgangerCache llc(mem, smallDedup(), nullptr);
    seedPattern(mem, 0x1000, 7, 7);
    seedPattern(mem, 0x2000, 7, 7);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    EXPECT_EQ(llc.tagCount(), 2u);
    EXPECT_EQ(llc.dataCount(), 1u);
    EXPECT_TRUE(llc.sameDataEntry(0x1000, 0x2000));
}

TEST(DedupLlc, OneByteDifferencePreventsSharing)
{
    MainMemory mem;
    DoppelgangerCache llc(mem, smallDedup(), nullptr);
    seedPattern(mem, 0x1000, 7, 7);
    seedPattern(mem, 0x2000, 8, 7); // differs in one byte
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    EXPECT_EQ(llc.dataCount(), 2u);
    EXPECT_FALSE(llc.sameDataEntry(0x1000, 0x2000));
}

TEST(DedupLlc, ReadsAreLossless)
{
    // Dedup never corrupts data: reads return exactly what was stored.
    MainMemory mem;
    DoppelgangerCache llc(mem, smallDedup(), nullptr);
    Rng rng(4);
    BlockData blocks[8];
    for (unsigned k = 0; k < 8; ++k) {
        for (auto &b : blocks[k])
            b = static_cast<u8>(rng.below(4)); // some duplicates likely
        mem.poke(0x1000 + k * blockBytes, blocks[k].data(), blockBytes);
    }
    BlockData buf;
    for (unsigned k = 0; k < 8; ++k)
        llc.fetch(0x1000 + k * blockBytes, buf.data());
    for (unsigned k = 0; k < 8; ++k) {
        llc.fetch(0x1000 + k * blockBytes, buf.data());
        EXPECT_EQ(buf, blocks[k]) << "block " << k;
    }
}

TEST(DedupLlc, WriteUnshares)
{
    MainMemory mem;
    DoppelgangerCache llc(mem, smallDedup(), nullptr);
    seedPattern(mem, 0x1000, 7, 7);
    seedPattern(mem, 0x2000, 7, 7);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    ASSERT_TRUE(llc.sameDataEntry(0x1000, 0x2000));

    BlockData w;
    w.fill(9);
    llc.writeback(0x1000, w.data());
    EXPECT_FALSE(llc.sameDataEntry(0x1000, 0x2000));
    llc.fetch(0x1000, buf.data());
    EXPECT_EQ(buf[0], 9);
    llc.fetch(0x2000, buf.data());
    EXPECT_EQ(buf[0], 7);
}

TEST(DedupLlc, FlushWritesDirtyDataExactly)
{
    MainMemory mem;
    DoppelgangerCache llc(mem, smallDedup(), nullptr);
    seedPattern(mem, 0x1000, 1, 1);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    BlockData w;
    w.fill(0x42);
    llc.writeback(0x1000, w.data());
    llc.flush();
    BlockData back;
    mem.peek(0x1000, back.data(), blockBytes);
    EXPECT_EQ(back, w);
}

TEST(DedupLlc, InvariantsUnderChurn)
{
    MainMemory mem;
    DoppelgangerCache llc(mem, smallDedup(), nullptr);
    Rng rng(6);
    BlockData buf;
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng.below(128) * blockBytes;
        if (rng.below(3) == 0) {
            BlockData w;
            w.fill(static_cast<u8>(rng.below(16)));
            llc.writeback(a, w.data());
        } else {
            llc.fetch(a, buf.data());
        }
    }
    std::string why;
    EXPECT_TRUE(llc.checkInvariants(&why)) << why;
}

TEST(DedupLlc, FaultInjectorReachesEngine)
{
    // Regression pin: the organization used to be a wrapper whose
    // inherited setFaultInjector only set its own pointer, so a fault
    // campaign against dedup silently injected nothing. The factory's
    // dedup is the engine itself; attach the injector the way a run
    // does.
    MainMemory mem;
    ApproxRegistry reg;
    RunConfig cfg;
    cfg.baselineBytes = 64 * blockBytes; // 64 tags: flips land live
    cfg.dataFraction = 0.5;
    StatRegistry stats;
    LlcBuilt built = buildLlc("dedup", mem, reg, cfg, stats);
    FaultConfig fc;
    fc.seed = 7;
    fc.tagMetaRate = 0.5; // fire fast; determinism is the seed's job
    FaultInjector fi(fc);
    built.llc->setFaultInjector(&fi);

    BlockData buf;
    for (unsigned k = 0; k < 64; ++k)
        built.llc->fetch(0x1000 + k * blockBytes, buf.data());
    EXPECT_GT(fi.stats().totalInjected(), 0u)
        << "injector attached to the organization never reached it";
}

TEST(DedupLlc, MetadataFaultStressRepairsAndHoldsInvariants)
{
    // 10k mixed operations under tag/MTag metadata flips: the engine's
    // detect-and-repair path must keep refcounts from underflowing and
    // leave no orphaned data entries behind.
    MainMemory mem;
    DoppelgangerCache llc(mem, smallDedup(), nullptr);
    FaultConfig fc;
    fc.seed = 99;
    fc.tagMetaRate = 2e-3;
    fc.mtagMetaRate = 1e-3;
    FaultInjector fi(fc);
    llc.setFaultInjector(&fi);

    Rng rng(8);
    BlockData buf;
    for (int i = 0; i < 10000; ++i) {
        const Addr a = rng.below(256) * blockBytes;
        if (rng.below(3) == 0) {
            BlockData w;
            w.fill(static_cast<u8>(rng.below(16)));
            llc.writeback(a, w.data());
        } else {
            llc.fetch(a, buf.data());
        }
    }
    EXPECT_GT(fi.stats().totalInjected(), 0u);
    EXPECT_GT(fi.stats().repairs, 0u);
    llc.selfCheckAndRepair();
    std::string why;
    // Structural invariants must hold; content hashes may legitimately
    // disagree after repair (a dropped tag leaves its block to be
    // refetched), so the stress checks structure only.
    EXPECT_TRUE(dedupInvariantsHold(llc, why, false)) << why;
}

TEST(DedupLlc, CheckInvariantsVerifiesContentHashes)
{
    // The hash-verifying pass (check_hashes=true) is the orphan /
    // stale-map detector: on a clean cache it must pass.
    MainMemory mem;
    DoppelgangerCache llc(mem, smallDedup(), nullptr);
    Rng rng(12);
    BlockData buf;
    for (int i = 0; i < 500; ++i)
        llc.fetch(rng.below(64) * blockBytes, buf.data());
    std::string why;
    EXPECT_TRUE(dedupInvariantsHold(llc, why)) << why;
}

TEST(DedupLlc, NameAndStats)
{
    MainMemory mem;
    DoppelgangerCache llc(mem, smallDedup(), nullptr);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    EXPECT_EQ(llc.stats().fetches, 1u);
    llc.resetStats();
    EXPECT_EQ(llc.stats().fetches, 0u);
}

} // namespace dopp
