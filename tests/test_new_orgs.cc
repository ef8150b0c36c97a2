/**
 * @file
 * The three factory-registered LLC organizations added after the five
 * built-ins — uniDoppBdi (Doppelgänger sharing × B∆I accounting),
 * gdish (global-dictionary word sharing) and approxDedup
 * (threshold-match dedup) — plus the union-schema CSV pin: an
 * organization that never registered a column must serialize an empty
 * cell, not a fabricated 0.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "compress/dedup.hh"
#include "compress/gdish.hh"
#include "compress/uni_dopp_bdi.hh"
#include "core/doppelganger_cache.hh"
#include "doppelganger_ref.hh"
#include "fault/fault_injector.hh"
#include "harness/experiment.hh"
#include "harness/journal.hh"
#include "harness/llc_factory.hh"
#include "harness/results_io.hh"
#include "util/random.hh"

namespace dopp
{
namespace
{

RunConfig
tinyNamed(const std::string &llc_name,
          const std::string &workload = "kmeans")
{
    RunConfig cfg;
    cfg.llcName = llc_name;
    cfg.workloadName = workload;
    cfg.workload.scale = 0.05;
    return cfg;
}

/** A block of sixteen identical F32 elements. */
BlockData
floatBlock(float v)
{
    BlockData b;
    for (unsigned i = 0; i < blockBytes / sizeof(float); ++i)
        std::memcpy(b.data() + i * sizeof(float), &v, sizeof(float));
    return b;
}

/** A block of sixteen distinct 4-byte words i*stride + base. */
BlockData
wordBlock(u32 base, u32 stride)
{
    BlockData b;
    for (unsigned i = 0; i < gdishWordsPerBlock; ++i) {
        const u32 w = base + i * stride;
        std::memcpy(b.data() + i * gdishWordBytes, &w,
                    gdishWordBytes);
    }
    return b;
}

MapParams
f32Params(unsigned map_bits = 14)
{
    MapParams p;
    p.mapBits = map_bits;
    p.type = ElemType::F32;
    p.minValue = 0.0;
    p.maxValue = 1.0;
    return p;
}

DoppConfig
smallApproxDedup()
{
    DoppConfig cfg;
    cfg.tagEntries = 64;
    cfg.tagWays = 16;
    cfg.dataEntries = 32;
    cfg.dataWays = 4;
    cfg.mapOverride = approxDedupSignature;
    return cfg;
}

DoppConfig
smallUniDopp()
{
    DoppConfig cfg;
    cfg.unified = true;
    cfg.tagEntries = 64;
    cfg.tagWays = 16;
    cfg.dataEntries = 32;
    cfg.dataWays = 4;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Factory registration and journal fingerprints.
// ---------------------------------------------------------------------

TEST(NewOrgs, AllThreeAreRegistered)
{
    registerBuiltinLlcs();
    for (const char *name : {"uniDoppBdi", "gdish", "approxDedup"})
        EXPECT_TRUE(llcRegistered(name)) << name;
}

TEST(NewOrgs, ConfigFingerprintsAreDistinctAcrossOrganizations)
{
    // The journal keys resume decisions off the fingerprint; two
    // organizations colliding would make a campaign skip runs.
    registerBuiltinLlcs();
    std::set<std::string> prints;
    const auto names = registeredLlcNames();
    for (const std::string &name : names) {
        RunConfig cfg = tinyNamed(name);
        EXPECT_TRUE(prints.insert(configFingerprint(cfg)).second)
            << name << " collides with an earlier organization";
    }
    EXPECT_GE(names.size(), 8u); // 5 built-ins + the 3 new ones
}

// ---------------------------------------------------------------------
// GDISH: the reference-counted global dictionary.
// ---------------------------------------------------------------------

TEST(GdishDict, AcquireTakesOneRefPerWordAndReleaseFrees)
{
    GdishDict dict(64);
    const BlockData a = wordBlock(100, 1); // 16 distinct words
    ASSERT_TRUE(dict.compressible(a.data()));
    ASSERT_TRUE(dict.acquire(a.data()));
    EXPECT_EQ(dict.size(), 16u);
    EXPECT_EQ(dict.totalRefs(), 16u);

    // A second identical block shares every entry.
    ASSERT_TRUE(dict.acquire(a.data()));
    EXPECT_EQ(dict.size(), 16u);
    EXPECT_EQ(dict.totalRefs(), 32u);
    EXPECT_EQ(dict.inserts(), 16u);

    dict.release(a.data());
    EXPECT_EQ(dict.size(), 16u);
    EXPECT_EQ(dict.totalRefs(), 16u);
    EXPECT_EQ(dict.erases(), 0u);

    dict.release(a.data());
    EXPECT_EQ(dict.size(), 0u);
    EXPECT_EQ(dict.erases(), 16u);
    std::string why;
    EXPECT_TRUE(dict.checkInvariants(&why)) << why;
}

TEST(GdishDict, CapacityBoundRejectsWithoutSideEffects)
{
    GdishDict dict(8);
    const BlockData wide = wordBlock(0, 1); // needs 16 entries
    EXPECT_FALSE(dict.compressible(wide.data()));
    EXPECT_FALSE(dict.acquire(wide.data()));
    EXPECT_EQ(dict.size(), 0u);
    EXPECT_EQ(dict.inserts(), 0u);

    const BlockData narrow = wordBlock(0, 0); // one repeated word
    EXPECT_TRUE(dict.acquire(narrow.data()));
    EXPECT_EQ(dict.size(), 1u);
    EXPECT_EQ(dict.totalRefs(), 16u); // duplicates take multiple refs
}

// ---------------------------------------------------------------------
// GDISH: the LLC organization.
// ---------------------------------------------------------------------

namespace
{

GdishLlcConfig
smallGdish()
{
    GdishLlcConfig cfg;
    cfg.sizeBytes = 16 * 1024; // 16 sets × 16 ways
    cfg.dictEntries = 64;
    return cfg;
}

} // namespace

TEST(GdishLlc, SharedWordBlocksCompress)
{
    MainMemory mem;
    GdishLlc llc(mem, smallGdish(), nullptr);
    // Eight blocks drawing from the same small word set.
    const BlockData shared = wordBlock(7, 0);
    BlockData buf;
    for (unsigned k = 0; k < 8; ++k) {
        mem.poke(0x1000 + k * blockBytes, shared.data(), blockBytes);
        llc.fetch(0x1000 + k * blockBytes, buf.data());
    }
    EXPECT_EQ(llc.blockCount(), 8u);
    EXPECT_EQ(llc.storedBytes(), 8u * gdishCompressedBlockBytes);
    EXPECT_GT(llc.compressionRatio(), 1.5);
    EXPECT_EQ(llc.dictionary().size(), 1u);
    std::string why;
    EXPECT_TRUE(llc.checkInvariants(&why)) << why;
}

TEST(GdishLlc, ReadsAreLossless)
{
    MainMemory mem;
    GdishLlc llc(mem, smallGdish(), nullptr);
    Rng rng(11);
    BlockData blocks[8];
    for (unsigned k = 0; k < 8; ++k) {
        for (auto &b : blocks[k])
            b = static_cast<u8>(rng.below(256));
        mem.poke(0x4000 + k * blockBytes, blocks[k].data(), blockBytes);
    }
    BlockData buf;
    for (unsigned k = 0; k < 8; ++k)
        llc.fetch(0x4000 + k * blockBytes, buf.data());
    for (unsigned k = 0; k < 8; ++k) {
        llc.fetch(0x4000 + k * blockBytes, buf.data());
        EXPECT_EQ(buf, blocks[k]) << "block " << k;
    }
}

TEST(GdishLlc, FlushReleasesEveryDictionaryReference)
{
    MainMemory mem;
    GdishLlc llc(mem, smallGdish(), nullptr);
    const BlockData shared = wordBlock(3, 1);
    BlockData buf;
    for (unsigned k = 0; k < 4; ++k) {
        mem.poke(0x2000 + k * blockBytes, shared.data(), blockBytes);
        llc.fetch(0x2000 + k * blockBytes, buf.data());
    }
    ASSERT_GT(llc.dictionary().size(), 0u);
    llc.flush();
    EXPECT_EQ(llc.blockCount(), 0u);
    EXPECT_EQ(llc.dictionary().size(), 0u);
    EXPECT_EQ(llc.dictionary().totalRefs(), 0u);
    std::string why;
    EXPECT_TRUE(llc.checkInvariants(&why)) << why;
}

TEST(GdishLlc, WritebackRecompressesAndStaysLossless)
{
    MainMemory mem;
    GdishLlc llc(mem, smallGdish(), nullptr);
    const BlockData first = wordBlock(1, 0);
    mem.poke(0x3000, first.data(), blockBytes);
    BlockData buf;
    llc.fetch(0x3000, buf.data());
    ASSERT_EQ(llc.dictionary().size(), 1u);

    // Overwrite with different (still compressible) contents: the old
    // word's refs must drop, the new word's appear.
    const BlockData second = wordBlock(2, 0);
    llc.writeback(0x3000, second.data());
    EXPECT_EQ(llc.dictionary().size(), 1u);
    llc.fetch(0x3000, buf.data());
    EXPECT_EQ(buf, second);

    llc.flush();
    BlockData back;
    mem.peek(0x3000, back.data(), blockBytes);
    EXPECT_EQ(back, second);
}

TEST(GdishLlc, InvariantsUnderChurn)
{
    // Mixed compressible/incompressible traffic through a small cache
    // with a small dictionary: evictions, overwrites and dictionary
    // pressure all interleave.
    MainMemory mem;
    GdishLlcConfig cfg = smallGdish();
    cfg.dictEntries = 24;
    GdishLlc llc(mem, cfg, nullptr);
    Rng rng(17);
    BlockData buf;
    for (int i = 0; i < 4000; ++i) {
        const Addr a = rng.below(512) * blockBytes;
        if (rng.below(3) == 0) {
            const BlockData w = rng.below(2) == 0
                ? wordBlock(static_cast<u32>(rng.below(8)), 0)
                : wordBlock(static_cast<u32>(rng.next()), 1);
            llc.writeback(a, w.data());
        } else {
            llc.fetch(a, buf.data());
        }
        if (i % 512 == 0) {
            std::string why;
            ASSERT_TRUE(llc.checkInvariants(&why))
                << "op " << i << ": " << why;
        }
    }
    std::string why;
    EXPECT_TRUE(llc.checkInvariants(&why)) << why;
    EXPECT_LE(llc.dictionary().size(), 24u);
}

// ---------------------------------------------------------------------
// Approximate dedup: the quantized-element signature.
// ---------------------------------------------------------------------

TEST(ApproxDedupSignature, CellCountFollowsMapBits)
{
    EXPECT_EQ(approxDedupCells(14), 128u);
    EXPECT_EQ(approxDedupCells(1), 2u);
    EXPECT_EQ(approxDedupCells(0), 2u);
    // Saturates instead of shifting past the u64 width.
    EXPECT_EQ(approxDedupCells(80), 1ULL << 32);
}

TEST(ApproxDedupSignature, CollapsesWithinOneGridStep)
{
    const MapParams p = f32Params();
    // 128 cells over [0,1]: step ≈ 0.0078. 0.5 and 0.502 land in the
    // same cell; 0.6 is ~13 cells away.
    const BlockData a = floatBlock(0.5f);
    const BlockData b = floatBlock(0.502f);
    const BlockData c = floatBlock(0.6f);
    EXPECT_EQ(approxDedupSignature(a.data(), p),
              approxDedupSignature(b.data(), p));
    EXPECT_NE(approxDedupSignature(a.data(), p),
              approxDedupSignature(c.data(), p));
}

TEST(ApproxDedupSignature, DegenerateRangeMapsEverythingTogether)
{
    MapParams p = f32Params();
    p.minValue = p.maxValue = 0.25;
    const BlockData a = floatBlock(0.1f);
    const BlockData b = floatBlock(0.9f);
    EXPECT_EQ(approxDedupSignature(a.data(), p),
              approxDedupSignature(b.data(), p));
}

// ---------------------------------------------------------------------
// Approximate dedup: the LLC organization.
// ---------------------------------------------------------------------

TEST(ApproxDedupLlc, SimilarBlocksShareOneEntry)
{
    MainMemory mem;
    DoppelgangerCache llc(mem, smallApproxDedup(), nullptr);
    const BlockData a = floatBlock(0.5f);
    const BlockData b = floatBlock(0.502f);
    mem.poke(0x1000, a.data(), blockBytes);
    mem.poke(0x2000, b.data(), blockBytes);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    EXPECT_EQ(llc.tagCount(), 2u);
    EXPECT_EQ(llc.dataCount(), 1u);
    EXPECT_TRUE(llc.sameDataEntry(0x1000, 0x2000));
}

TEST(ApproxDedupLlc, DissimilarBlocksKeepSeparateEntries)
{
    MainMemory mem;
    DoppelgangerCache llc(mem, smallApproxDedup(), nullptr);
    const BlockData a = floatBlock(0.5f);
    const BlockData c = floatBlock(0.6f);
    mem.poke(0x1000, a.data(), blockBytes);
    mem.poke(0x2000, c.data(), blockBytes);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    EXPECT_EQ(llc.dataCount(), 2u);
    EXPECT_FALSE(llc.sameDataEntry(0x1000, 0x2000));
}

TEST(ApproxDedupLlc, ServedErrorIsBoundedByOneGridStep)
{
    // Where exact dedup is lossless, threshold-match dedup serves the
    // representative's data; the bound is one quantization step.
    MainMemory mem;
    DoppelgangerCache llc(mem, smallApproxDedup(), nullptr);
    const BlockData a = floatBlock(0.5f);
    const BlockData b = floatBlock(0.502f);
    mem.poke(0x1000, a.data(), blockBytes);
    mem.poke(0x2000, b.data(), blockBytes);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    ASSERT_TRUE(llc.sameDataEntry(0x1000, 0x2000));

    llc.fetch(0x2000, buf.data());
    const double step =
        1.0 / static_cast<double>(approxDedupCells(14));
    for (unsigned i = 0; i < blockBytes / sizeof(float); ++i) {
        float served;
        std::memcpy(&served, buf.data() + i * sizeof(float),
                    sizeof(float));
        EXPECT_NEAR(served, 0.502f, step) << "element " << i;
    }
}

TEST(ApproxDedupLlc, MetadataFaultStressStaysStructurallySound)
{
    // 10k operations with aggressive tag/MTag metadata flips: the
    // engine's built-in detect-and-repair (the PR 1 path the injector
    // drives) must keep the structure walkable and invariant-clean.
    MainMemory mem;
    DoppelgangerCache llc(mem, smallApproxDedup(), nullptr);
    FaultConfig fc;
    fc.seed = 1234;
    fc.tagMetaRate = 2e-3;
    fc.mtagMetaRate = 1e-3;
    FaultInjector fi(fc);
    llc.setFaultInjector(&fi);

    Rng rng(21);
    BlockData buf;
    for (int i = 0; i < 10000; ++i) {
        const Addr a = rng.below(256) * blockBytes;
        if (rng.below(4) == 0) {
            const BlockData w = floatBlock(
                static_cast<float>(rng.below(1000)) / 1000.0f);
            llc.writeback(a, w.data());
        } else {
            llc.fetch(a, buf.data());
        }
    }
    EXPECT_GT(fi.stats().totalInjected(), 0u);
    llc.selfCheckAndRepair();
    std::string why;
    EXPECT_TRUE(llc.checkInvariants(&why)) << why;
}

// ---------------------------------------------------------------------
// Unified Doppelgänger × B∆I.
// ---------------------------------------------------------------------

TEST(UniDoppBdiLlc, SharesLikeDoppelgangerAndAccountsCompression)
{
    // Unified engines store *unannotated* traffic precisely; sharing
    // only happens inside a declared approximate region.
    MainMemory mem;
    ApproxRegistry reg;
    ApproxRegion region;
    region.base = 0;
    region.size = 1 << 20;
    region.type = ElemType::F32;
    region.minValue = 0.0;
    region.maxValue = 1.0;
    region.name = "test";
    reg.add(region);
    UniDoppBdiLlc llc(mem, smallUniDopp(), &reg);
    const BlockData a = floatBlock(0.5f);
    mem.poke(0x1000, a.data(), blockBytes);
    mem.poke(0x2000, a.data(), blockBytes);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    EXPECT_TRUE(llc.inner().sameDataEntry(0x1000, 0x2000));

    // Both misses installed (and were accounted); a block of sixteen
    // identical words compresses far below 64 B.
    EXPECT_EQ(llc.compressions(), 2u);
    EXPECT_LT(llc.compressedBytes(), 2u * blockBytes);
    EXPECT_GT(llc.compressionRatio(), 1.0);
}

TEST(UniDoppBdiLlc, WritebacksAreAccountedToo)
{
    MainMemory mem;
    UniDoppBdiLlc llc(mem, smallUniDopp(), nullptr);
    const BlockData a = floatBlock(0.25f);
    mem.poke(0x1000, a.data(), blockBytes);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    const u64 before = llc.compressions();
    llc.writeback(0x1000, floatBlock(0.75f).data());
    EXPECT_EQ(llc.compressions(), before + 1);
}

TEST(UniDoppBdiLlc, HitsAreNotAccounted)
{
    MainMemory mem;
    UniDoppBdiLlc llc(mem, smallUniDopp(), nullptr);
    mem.poke(0x1000, floatBlock(0.5f).data(), blockBytes);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    const u64 before = llc.compressions();
    llc.fetch(0x1000, buf.data()); // hit: no data-array install
    EXPECT_EQ(llc.compressions(), before);
}

// ---------------------------------------------------------------------
// End-to-end: the three organizations through runWorkload.
// ---------------------------------------------------------------------

TEST(NewOrgs, RunWorkloadProducesTrafficAndOrgCounters)
{
    struct Expect
    {
        const char *org;
        const char *counter;
    };
    const Expect cases[] = {
        {"uniDoppBdi", "llc.bdi.compressedBytes"},
        {"gdish", "llc.gdish.dictInserts"},
        {"approxDedup", "llc.mapGens"},
    };
    for (const auto &c : cases) {
        const RunResult r = runWorkload(tinyNamed(c.org));
        EXPECT_EQ(r.organization, c.org);
        ASSERT_TRUE(r.stats.has(c.counter)) << c.org;
        EXPECT_GT(r.stats.counter(c.counter), 0u) << c.org;
        EXPECT_GT(r.stats.counter("llc.fetches"), 0u) << c.org;
    }
}

TEST(NewOrgs, ReferenceEngineIsBitIdentical)
{
    // The engine-backed organizations must match their ".ref" twins,
    // built on the frozen reference engine (the differential oracle
    // covers the full matrix; this is the quick in-suite pin).
    registerRefLlcs();
    for (const char *org : {"uniDoppBdi", "approxDedup"}) {
        const RunConfig opt = tinyNamed(org);
        const RunConfig ref = tinyNamed(std::string(org) + ".ref");
        const RunResult a = runWorkload(opt);
        const RunResult b = runWorkload(ref);
        EXPECT_EQ(a.stats, b.stats) << org;
        EXPECT_EQ(a.output, b.output) << org;
    }
}

// ---------------------------------------------------------------------
// Union-schema CSV: absent columns are empty cells, not zeros.
// ---------------------------------------------------------------------

TEST(ResultsCsvUnion, AbsentColumnsAreEmptyNotZero)
{
    RunConfig base = tinyNamed("");
    base.llcName = "baseline";
    const RunResult baseline = runWorkload(base);
    const RunResult bdiRun = runWorkload(tinyNamed("uniDoppBdi"));

    const std::string path =
        ::testing::TempDir() + "dopp_union_schema.csv";
    writeResultsCsv(path, {baseline, bdiRun});

    // Raw file: the baseline row's cell under a uniDoppBdi-only
    // column must be *empty* — a fabricated 0 would read as "0 bytes
    // compressed", i.e. a measured 0% compression ratio.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header, row1;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row1)); // the baseline row
    auto cells = [](const std::string &line) {
        std::vector<std::string> out;
        std::string cur;
        for (char ch : line) {
            if (ch == ',') {
                out.push_back(cur);
                cur.clear();
            } else {
                cur += ch;
            }
        }
        out.push_back(cur);
        return out;
    };
    const auto cols = cells(header);
    const auto vals = cells(row1);
    ASSERT_EQ(cols.size(), vals.size());
    size_t idx = cols.size();
    for (size_t i = 0; i < cols.size(); ++i)
        if (cols[i] == "llc.bdi.compressedBytes")
            idx = i;
    ASSERT_LT(idx, cols.size())
        << "union header lost the uniDoppBdi-only column";
    EXPECT_EQ(vals[1], "baseline");
    EXPECT_TRUE(vals[idx].empty())
        << "absent column serialized as '" << vals[idx] << "'";

    // Round trip: the loader skips the empty cell, so the baseline
    // row simply has no such column while the uniDoppBdi row does.
    const auto rows = loadResultsCsv(path);
    ASSERT_EQ(rows.size(), 2u);
    for (const auto &[name, v] : rows[0].values)
        EXPECT_NE(name, "llc.bdi.compressedBytes");
    EXPECT_GT(rows[1].value("llc.bdi.compressedBytes"), 0.0);
    std::remove(path.c_str());
}

} // namespace dopp
