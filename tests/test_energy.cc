/**
 * @file
 * Tests for CactiLite and the hardware-cost/energy models: power-law
 * fitting, Table 3 bit widths and totals (exact), anchor-point
 * tolerances, area reductions and energy arithmetic.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "energy/energy_model.hh"
#include "energy/hardware_cost.hh"

namespace dopp
{

TEST(PowerLaw, ExactFitOfTwoPoints)
{
    const PowerLaw law = fitPowerLaw({{1.0, 2.0}, {4.0, 8.0}});
    EXPECT_NEAR(law.eval(1.0), 2.0, 1e-9);
    EXPECT_NEAR(law.eval(4.0), 8.0, 1e-9);
    EXPECT_NEAR(law.b, 1.0, 1e-9);
}

TEST(PowerLaw, RecoverKnownExponent)
{
    // y = 3 x^0.5 sampled at several points.
    std::vector<std::pair<double, double>> pts;
    for (double x : {1.0, 4.0, 16.0, 64.0})
        pts.emplace_back(x, 3.0 * std::sqrt(x));
    const PowerLaw law = fitPowerLaw(pts);
    EXPECT_NEAR(law.a, 3.0, 1e-9);
    EXPECT_NEAR(law.b, 0.5, 1e-9);
}

TEST(PowerLaw, ZeroInputGivesZero)
{
    const PowerLaw law = fitPowerLaw({{1.0, 2.0}, {4.0, 8.0}});
    EXPECT_EQ(law.eval(0.0), 0.0);
}

namespace
{

/** Relative difference helper. */
double
rel(double measured, double paper)
{
    return std::abs(measured - paper) / paper;
}

} // namespace

TEST(CactiLite, AnchorsWithinTolerance)
{
    const CactiLite c;
    // Table 3 anchors: tag-like structures (KB → pJ, ns).
    EXPECT_LT(rel(c.tagArray(19 * 8192.0).readEnergyPj, 6.3), 0.20);
    EXPECT_LT(rel(c.tagArray(108 * 8192.0).readEnergyPj, 24.8), 0.20);
    EXPECT_LT(rel(c.tagArray(316 * 8192.0).readEnergyPj, 61.3), 0.20);
    // Data-like structures.
    EXPECT_LT(rel(c.dataArray(256 * 8192.0).readEnergyPj, 80.3), 0.10);
    EXPECT_LT(rel(c.dataArray(1024 * 8192.0).readEnergyPj, 322.7),
              0.10);
    EXPECT_LT(rel(c.dataArray(2048 * 8192.0).readEnergyPj, 667.4),
              0.10);
    EXPECT_LT(rel(c.dataArray(256 * 8192.0).latencyNs, 0.67), 0.10);
    EXPECT_LT(rel(c.dataArray(2048 * 8192.0).latencyNs, 1.27), 0.10);
}

TEST(CactiLite, MonotonicInCapacity)
{
    const CactiLite c;
    double prevArea = 0.0;
    double prevEnergy = 0.0;
    for (double kb : {16.0, 64.0, 256.0, 1024.0, 4096.0}) {
        const SramCost cost = c.dataArray(kb * 8192.0);
        EXPECT_GT(cost.areaMm2, prevArea);
        EXPECT_GT(cost.readEnergyPj, prevEnergy);
        prevArea = cost.areaMm2;
        prevEnergy = cost.readEnergyPj;
    }
}

TEST(CactiLite, LeakageProportionalToCapacity)
{
    const CactiLite c;
    const SramCost a = c.dataArray(256 * 8192.0);
    const SramCost b = c.dataArray(512 * 8192.0);
    EXPECT_NEAR(b.leakageMw / a.leakageMw, 2.0, 1e-9);
}

TEST(CactiLite, WritePremium)
{
    const CactiLite c;
    const SramCost cost = c.dataArray(1024 * 8192.0);
    EXPECT_GT(cost.writeEnergyPj, cost.readEnergyPj);
    EXPECT_NEAR(cost.writeEnergyPj / cost.readEnergyPj,
                CactiLite::writeEnergyFactor, 1e-12);
}

// ---------------------------------------------------------------------
// Hardware cost: Table 3 bit widths and totals must match exactly.
// ---------------------------------------------------------------------

namespace
{

DoppConfig
paperSplitDopp()
{
    DoppConfig d; // defaults are the Table 1 split configuration
    return d;
}

DoppConfig
paperUniDopp()
{
    DoppConfig d;
    d.tagEntries = 32 * 1024;
    d.dataEntries = 16 * 1024;
    d.unified = true;
    return d;
}

} // namespace

TEST(HardwareCost, BaselineEntryBits)
{
    const CactiLite c;
    const StructureCost s = conventionalCost(c, "b", 32 * 1024, 16);
    EXPECT_EQ(s.tagEntryBits, 27u);       // Table 3
    EXPECT_EQ(s.dataEntryBits, 512u);
    EXPECT_NEAR(s.totalKb, 2156.0, 0.5);
}

TEST(HardwareCost, PreciseEntryBits)
{
    const CactiLite c;
    const StructureCost s = conventionalCost(c, "p", 16 * 1024, 16);
    EXPECT_EQ(s.tagEntryBits, 28u);
    EXPECT_NEAR(s.totalKb, 1080.0, 0.5);
}

TEST(HardwareCost, DoppTagEntryBits)
{
    const CactiLite c;
    const StructureCost s = doppTagCost(c, "t", paperSplitDopp());
    EXPECT_EQ(s.tagEntryBits, 77u); // Table 3
    EXPECT_NEAR(s.totalKb, 154.0, 0.5);
}

TEST(HardwareCost, DoppDataEntryBits)
{
    const CactiLite c;
    const StructureCost s = doppDataCost(c, "d", paperSplitDopp());
    EXPECT_EQ(s.tagEntryBits, 38u); // Table 3 MTag entry
    EXPECT_NEAR(s.totalKb, 275.0, 0.5);
}

TEST(HardwareCost, UniDoppTagEntryBits)
{
    const CactiLite c;
    const StructureCost s = doppTagCost(c, "ut", paperUniDopp());
    EXPECT_EQ(s.tagEntryBits, 79u);
    EXPECT_NEAR(s.totalKb, 316.0, 0.5);
}

TEST(HardwareCost, UniDoppDataEntryBits)
{
    const CactiLite c;
    const StructureCost s = doppDataCost(c, "ud", paperUniDopp());
    EXPECT_EQ(s.tagEntryBits, 38u);
    EXPECT_NEAR(s.totalKb, 1100.0, 0.5);
}

TEST(HardwareCost, StorageReductionMatchesSec56)
{
    const CactiLite c;
    const double base =
        conventionalCost(c, "b", 32 * 1024, 16).totalKb;
    const double dopp =
        conventionalCost(c, "p", 16 * 1024, 16).totalKb +
        doppTagCost(c, "t", paperSplitDopp()).totalKb +
        doppDataCost(c, "d", paperSplitDopp()).totalKb;
    EXPECT_NEAR(base / dopp, 1.43, 0.02); // Sec 5.6
}

TEST(HardwareCost, SplitAreaReductionNearPaper)
{
    const CactiLite c;
    const LlcCost base = baselineLlcCost(c);
    const LlcCost split =
        splitLlcCost(c, 16 * 1024, 16, paperSplitDopp());
    const double reduction = base.totalAreaMm2 / split.totalAreaMm2;
    EXPECT_NEAR(reduction, 1.55, 0.12); // Fig 13 @1/4
    EXPECT_GT(split.fpuAreaMm2, 0.0);   // map-gen FPUs included
}

TEST(HardwareCost, SmallerDataArraysSaveMoreArea)
{
    const CactiLite c;
    const LlcCost base = baselineLlcCost(c);
    double prev = 0.0;
    for (u32 entries : {8u * 1024, 4u * 1024, 2u * 1024}) {
        DoppConfig d = paperSplitDopp();
        d.dataEntries = entries;
        const LlcCost split = splitLlcCost(c, 16 * 1024, 16, d);
        const double red = base.totalAreaMm2 / split.totalAreaMm2;
        EXPECT_GT(red, prev);
        prev = red;
    }
}

TEST(HardwareCost, UniAreaReductionNearPaper)
{
    const CactiLite c;
    const LlcCost base = baselineLlcCost(c);
    DoppConfig u = paperUniDopp();
    u.dataEntries = 8 * 1024; // 1/4 of the 2 MB tag-equivalent
    const LlcCost uni = uniLlcCost(c, u);
    EXPECT_NEAR(base.totalAreaMm2 / uni.totalAreaMm2, 3.15, 0.45);
}

TEST(HardwareCost, DataAccessLatencyClaim)
{
    // Sec 5.6: MTag + small data array beats the baseline data array
    // by about 1.31x.
    const CactiLite c;
    const StructureCost base =
        conventionalCost(c, "b", 32 * 1024, 16);
    const StructureCost dopp = doppDataCost(c, "d", paperSplitDopp());
    const double ratio = base.dataPart.latencyNs /
        (dopp.tagPart.latencyNs + dopp.dataPart.latencyNs);
    EXPECT_NEAR(ratio, 1.31, 0.15);
}

TEST(HardwareCost, MapBitsAffectTagWidth)
{
    const CactiLite c;
    DoppConfig d12 = paperSplitDopp();
    d12.mapBits = 12;
    DoppConfig d14 = paperSplitDopp();
    const unsigned w12 = doppTagCost(c, "t", d12).tagEntryBits;
    const unsigned w14 = doppTagCost(c, "t", d14).tagEntryBits;
    EXPECT_EQ(w14 - w12, 3u); // 21-bit vs 18-bit map field
}

// ---------------------------------------------------------------------
// Energy model arithmetic.
// ---------------------------------------------------------------------

namespace
{

/** The snapshot a run leaves: each (group, stats) pair's counters
 * under its group name, and @p cycles as run.runtimeCycles. */
StatSnapshot
runSnapshot(const std::vector<std::pair<std::string, LlcStats>> &groups,
            Tick cycles)
{
    StatRegistry reg;
    for (const auto &[name, s] : groups)
        registerLlcStatsView(reg.group(name), [s = s] { return s; });
    reg.group("run").counterFn("runtimeCycles",
                               [cycles] { return cycles; });
    return reg.snapshot();
}

/** A split run's snapshot: @p precise and @p dopp as its halves. */
StatSnapshot
splitSnapshot(const LlcStats &precise, const LlcStats &dopp, Tick cycles)
{
    return runSnapshot({{"llc.precise", precise}, {"llc.dopp", dopp}},
                       cycles);
}

} // namespace

TEST(EnergyModel, BaselineEnergyScalesWithAccesses)
{
    const EnergyModel em;
    LlcStats s;
    s.tagArray.reads = 1000;
    s.dataArray.reads = 1000;
    const EnergyResult one =
        em.baseline(runSnapshot({{"llc", s}}, 1000), "llc");
    LlcStats s2 = s;
    s2.tagArray.reads = 2000;
    s2.dataArray.reads = 2000;
    const EnergyResult two =
        em.baseline(runSnapshot({{"llc", s2}}, 1000), "llc");
    EXPECT_NEAR(two.dynamicPj / one.dynamicPj, 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(one.leakagePj, two.leakagePj);
}

TEST(EnergyModel, LeakageScalesWithRuntime)
{
    const EnergyModel em;
    LlcStats s;
    const EnergyResult a =
        em.baseline(runSnapshot({{"llc", s}}, 1000), "llc");
    const EnergyResult b =
        em.baseline(runSnapshot({{"llc", s}}, 3000), "llc");
    EXPECT_NEAR(b.leakagePj / a.leakagePj, 3.0, 1e-9);
}

TEST(EnergyModel, MapGenChargedAt168pJ)
{
    const EnergyModel em;
    LlcStats precise;
    LlcStats dopp;
    dopp.mapGens = 1000;
    const EnergyResult e = em.split(splitSnapshot(precise, dopp, 0),
                                    "llc.precise", "llc.dopp",
                                    DoppConfig{});
    EXPECT_DOUBLE_EQ(e.mapGenPj, 168.0 * 1000);
    EXPECT_DOUBLE_EQ(e.dynamicPj, e.mapGenPj);
}

TEST(EnergyModel, SplitPerAccessCheaperThanBaseline)
{
    // One access to each structure: the Dopp side must be much
    // cheaper than one baseline access (the source of Fig 11a).
    const EnergyModel em;
    LlcStats base;
    base.tagArray.reads = 1;
    base.dataArray.reads = 1;
    const double basePj =
        em.baseline(runSnapshot({{"llc", base}}, 0), "llc").dynamicPj;

    LlcStats precise;
    LlcStats dopp;
    dopp.tagArray.reads = 1;
    dopp.mtagArray.reads = 1;
    dopp.dataArray.reads = 1;
    const double doppPj = em.split(splitSnapshot(precise, dopp, 0),
                                   "llc.precise", "llc.dopp",
                                   DoppConfig{})
                              .dynamicPj;
    EXPECT_GT(basePj / doppPj, 3.0);
}

TEST(EnergyModel, UnifiedUsesUniStructures)
{
    const EnergyModel em;
    LlcStats s;
    s.tagArray.reads = 1;
    DoppConfig uni;
    uni.tagEntries = 32 * 1024;
    uni.dataEntries = 16 * 1024;
    uni.unified = true;
    const double uniTagPj =
        em.unified(runSnapshot({{"llc", s}}, 0), "llc", uni).dynamicPj;
    // The 316 KB uni tag array costs more per read than the 154 KB
    // split tag array.
    LlcStats precise;
    const double splitTagPj =
        em.split(splitSnapshot(precise, s, 0), "llc.precise", "llc.dopp",
                 DoppConfig{})
            .dynamicPj;
    EXPECT_GT(uniTagPj, splitTagPj);
}

TEST(HardwareCost, FpuConstants)
{
    EXPECT_EQ(mapGenFpuCount, 8u);
    EXPECT_DOUBLE_EQ(mapGenFpuAreaMm2, 0.01); // Sec 4
}

} // namespace dopp
