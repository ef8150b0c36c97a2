/**
 * @file
 * Tests for the LLC-snapshot similarity analyses behind Figs 2, 7, 8
 * and Table 2, on hand-crafted snapshots with known answers.
 */

#include <gtest/gtest.h>

#include "analysis/similarity.hh"
#include "sim/llc.hh"

namespace dopp
{

namespace
{

SnapshotBlock
f32Block(Addr addr, const std::vector<float> &values, bool approx = true,
         double lo = 0.0, double hi = 1.0)
{
    SnapshotBlock b;
    b.addr = addr;
    b.approx = approx;
    b.type = ElemType::F32;
    b.minValue = lo;
    b.maxValue = hi;
    for (unsigned i = 0; i < 16; ++i)
        setBlockElement(b.data.data(), ElemType::F32, i,
                        values[i % values.size()]);
    return b;
}

} // namespace

TEST(Analysis, ApproxFraction)
{
    Snapshot snap;
    snap.push_back(f32Block(0x0, {0.1f}, true));
    snap.push_back(f32Block(0x40, {0.2f}, true));
    snap.push_back(f32Block(0x80, {0.3f}, false));
    snap.push_back(f32Block(0xC0, {0.4f}, false));
    EXPECT_DOUBLE_EQ(approxFraction(snap), 0.5);
    EXPECT_DOUBLE_EQ(approxFraction({}), 0.0);
}

TEST(Analysis, DedupSavingsExactDuplicatesOnly)
{
    Snapshot snap;
    snap.push_back(f32Block(0x0, {0.5f}));
    snap.push_back(f32Block(0x40, {0.5f}));   // identical
    snap.push_back(f32Block(0x80, {0.5001f})); // near but distinct
    snap.push_back(f32Block(0xC0, {0.9f}));
    // 4 blocks, 3 unique -> 25% savings.
    EXPECT_DOUBLE_EQ(dedupSavings(snap), 0.25);
}

TEST(Analysis, DedupIgnoresPreciseBlocks)
{
    Snapshot snap;
    snap.push_back(f32Block(0x0, {0.5f}, false));
    snap.push_back(f32Block(0x40, {0.5f}, false));
    EXPECT_DOUBLE_EQ(dedupSavings(snap), 0.0); // no approx blocks
}

TEST(Analysis, ThresholdZeroEqualsDedup)
{
    Snapshot snap;
    snap.push_back(f32Block(0x0, {0.5f}));
    snap.push_back(f32Block(0x40, {0.5f}));
    snap.push_back(f32Block(0x80, {0.7f}));
    EXPECT_DOUBLE_EQ(thresholdSavings(snap, 0.0), dedupSavings(snap));
}

TEST(Analysis, ThresholdGroupsNearbyBlocks)
{
    // 1% of range [0,1] = 0.01 tolerance.
    Snapshot snap;
    snap.push_back(f32Block(0x0, {0.500f}));
    snap.push_back(f32Block(0x40, {0.505f}));  // within 1%
    snap.push_back(f32Block(0x80, {0.520f}));  // outside vs 0.500
    EXPECT_NEAR(thresholdSavings(snap, 0.01), 1.0 / 3.0, 1e-9);
    // At 10% everything merges: 2/3 savings.
    EXPECT_NEAR(thresholdSavings(snap, 0.10), 2.0 / 3.0, 1e-9);
}

TEST(Analysis, ThresholdRequiresEveryElementClose)
{
    // One divergent element disqualifies the pair (Sec 2).
    Snapshot snap;
    snap.push_back(f32Block(0x0, {0.5f}));
    std::vector<float> almost(16, 0.5f);
    almost[7] = 0.9f;
    snap.push_back(f32Block(0x40, {almost.begin(), almost.end()}));
    EXPECT_DOUBLE_EQ(thresholdSavings(snap, 0.01), 0.0);
}

TEST(Analysis, ThresholdScalesWithDeclaredRange)
{
    // Same values, wider declared range -> wider absolute tolerance.
    Snapshot tight;
    tight.push_back(f32Block(0x0, {0.50f}, true, 0.0, 1.0));
    tight.push_back(f32Block(0x40, {0.56f}, true, 0.0, 1.0));
    EXPECT_DOUBLE_EQ(thresholdSavings(tight, 0.01), 0.0);

    Snapshot wide;
    wide.push_back(f32Block(0x0, {0.50f}, true, 0.0, 100.0));
    wide.push_back(f32Block(0x40, {0.56f}, true, 0.0, 100.0));
    EXPECT_DOUBLE_EQ(thresholdSavings(wide, 0.01), 0.5);
}

TEST(Analysis, MapSavingsMatchesMapCollisions)
{
    Snapshot snap;
    snap.push_back(f32Block(0x0, {0.5f}));
    snap.push_back(f32Block(0x40, {0.500005f})); // same 14-bit map
    snap.push_back(f32Block(0x80, {0.9f}));
    EXPECT_NEAR(mapSavings(snap, 14), 1.0 / 3.0, 1e-9);
}

TEST(Analysis, SmallerMapSpaceSavesMore)
{
    Snapshot snap;
    for (unsigned k = 0; k < 64; ++k) {
        snap.push_back(f32Block(k * blockBytes,
                                {0.5f + 0.0001f * static_cast<float>(k)}));
    }
    const double s12 = mapSavings(snap, 12);
    const double s14 = mapSavings(snap, 14);
    EXPECT_GE(s12, s14); // Fig 7 trend
    EXPECT_GT(s12, 0.0);
}

TEST(Analysis, BdiSavingsOnCompressibleBlocks)
{
    // Zero blocks compress to 1 byte: savings = 63/64 each.
    Snapshot snap;
    SnapshotBlock z;
    z.addr = 0;
    z.approx = true;
    snap.push_back(z);
    EXPECT_NEAR(bdiSavings(snap), 63.0 / 64.0, 1e-9);
}

TEST(Analysis, BdiSavingsZeroOnRandomFloats)
{
    Snapshot snap;
    snap.push_back(f32Block(0x0, {0.123f, 0.771f, 0.442f, 0.919f}));
    EXPECT_NEAR(bdiSavings(snap), 0.0, 0.5); // little to gain
}

TEST(Analysis, DoppBdiAtLeastDopp)
{
    Snapshot snap;
    for (unsigned k = 0; k < 16; ++k) {
        snap.push_back(f32Block(
            k * blockBytes, {0.25f * static_cast<float>(k % 4)}));
    }
    EXPECT_GE(doppBdiSavings(snap, 14), mapSavings(snap, 14) - 1e-9);
}

TEST(Analysis, CaptureSnapshotFromLlc)
{
    MainMemory mem;
    ApproxRegistry reg;
    ApproxRegion r;
    r.base = 0x1000;
    r.size = 0x100;
    r.type = ElemType::U8;
    r.minValue = 0;
    r.maxValue = 255;
    r.name = "px";
    reg.add(r);
    ConventionalLlc llc(mem, 64 * 1024, 16, 6, &reg);
    BlockData buf;
    llc.fetch(0x1000, buf.data());
    llc.fetch(0x2000, buf.data());
    const Snapshot snap = captureSnapshot(llc, reg);
    ASSERT_EQ(snap.size(), 2u);
    unsigned approx = 0;
    for (const auto &b : snap)
        approx += b.approx ? 1 : 0;
    EXPECT_EQ(approx, 1u);
}

TEST(Analysis, SnapshotAnalysisTable)
{
    // The closed table: every name the figure benches use, none with
    // a dot (they are stat names), and only approxFraction unthinned.
    const char *const names[] = {
        "approxFraction", "threshold0",    "threshold1e-4",
        "threshold1e-3",  "threshold1e-2", "threshold1e-1",
        "map12",          "map13",         "map14",
        "bdi",            "dedup",         "doppBdi14",
        "gdish",          "approxDedup14"};
    for (const char *name : names) {
        const SnapshotAnalysis *a = findSnapshotAnalysis(name);
        ASSERT_NE(a, nullptr) << name;
        EXPECT_STREQ(a->name, name);
        EXPECT_EQ(std::string(name).find('.'), std::string::npos);
        EXPECT_EQ(a->thinned, std::string(name) != "approxFraction");
    }
    EXPECT_EQ(findSnapshotAnalysis("map15"), nullptr);
    EXPECT_EQ(findSnapshotAnalysis(""), nullptr);

    // Each entry is its analysis at the listed parameter.
    Snapshot snap;
    for (int i = 0; i < 40; ++i) {
        snap.push_back(
            f32Block(0x40 * i, {0.01f * static_cast<float>(i % 7)}));
    }
    EXPECT_EQ(findSnapshotAnalysis("map13")->measure(snap),
              mapSavings(snap, 13));
    EXPECT_EQ(findSnapshotAnalysis("threshold1e-2")->measure(snap),
              thresholdSavings(snap, 0.01));
    EXPECT_EQ(findSnapshotAnalysis("approxDedup14")->measure(snap),
              approxDedupSavings(snap, 14));
}

TEST(Analysis, ThinSnapshotStridesEvenly)
{
    Snapshot snap(10);
    for (size_t i = 0; i < snap.size(); ++i)
        snap[i].addr = i;
    EXPECT_EQ(thinSnapshot(snap, 10).size(), 10u);
    const Snapshot thin = thinSnapshot(snap, 4);
    ASSERT_EQ(thin.size(), 4u);
    // Stride 2.5: indices 0, 2, 5, 7.
    EXPECT_EQ(thin[0].addr, 0u);
    EXPECT_EQ(thin[1].addr, 2u);
    EXPECT_EQ(thin[2].addr, 5u);
    EXPECT_EQ(thin[3].addr, 7u);
}

TEST(Analysis, EmptySnapshotsSafe)
{
    const Snapshot empty;
    EXPECT_DOUBLE_EQ(thresholdSavings(empty, 0.01), 0.0);
    EXPECT_DOUBLE_EQ(mapSavings(empty, 14), 0.0);
    EXPECT_DOUBLE_EQ(dedupSavings(empty), 0.0);
    EXPECT_DOUBLE_EQ(bdiSavings(empty), 0.0);
    EXPECT_DOUBLE_EQ(doppBdiSavings(empty, 14), 0.0);
}

TEST(Analysis, MixedTypesNeverSimilar)
{
    // Blocks of different element types cannot be merged by the
    // threshold analysis.
    Snapshot snap;
    snap.push_back(f32Block(0x0, {0.5f}));
    SnapshotBlock intBlock;
    intBlock.addr = 0x40;
    intBlock.approx = true;
    intBlock.type = ElemType::I32;
    intBlock.minValue = 0;
    intBlock.maxValue = 100;
    snap.push_back(intBlock);
    EXPECT_DOUBLE_EQ(thresholdSavings(snap, 0.10), 0.0);
}

} // namespace dopp
