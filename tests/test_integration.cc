/**
 * @file
 * Integration tests: whole-system behaviours the paper's evaluation
 * depends on, at reduced scale — error trends across map spaces,
 * baseline exactness, storage sharing under real workloads, and
 * consistency between organizations.
 */

#include <gtest/gtest.h>

#include "energy/energy_model.hh"
#include "harness/experiment.hh"

namespace dopp
{

namespace
{

RunConfig
mkConfig(const std::string &org, double scale = 0.2, unsigned map_bits = 14,
         double fraction = 0.25)
{
    RunConfig cfg;
    cfg.llcName = org;
    cfg.workload.scale = scale;
    cfg.mapBits = map_bits;
    cfg.dataFraction = fraction;
    return cfg;
}

} // namespace

TEST(Integration, BaselineRunsAreExact)
{
    // Two baseline runs of the same workload agree bit-for-bit, and a
    // dedup (lossless) run agrees with the baseline's output.
    const RunResult base =
        runWorkload("jpeg", mkConfig("baseline"));
    const RunResult dedup =
        runWorkload("jpeg", mkConfig("dedup"));
    EXPECT_EQ(base.output, dedup.output);
    EXPECT_DOUBLE_EQ(
        workloadOutputError("jpeg", dedup.output, base.output), 0.0);
}

TEST(Integration, DoppelgangerIntroducesBoundedError)
{
    const RunResult base =
        runWorkload("jpeg", mkConfig("baseline"));
    const RunResult dopp =
        runWorkload("jpeg", mkConfig("split-doppelganger"));
    const double err =
        workloadOutputError("jpeg", dopp.output, base.output);
    EXPECT_GT(err, 0.0);  // approximation is happening
    EXPECT_LT(err, 0.15); // and it is tolerable (paper: ~10% bar)
}

TEST(Integration, SmallerMapSpaceMoreError)
{
    const RunResult base =
        runWorkload("kmeans", mkConfig("baseline"));
    const RunResult m10 =
        runWorkload("kmeans", mkConfig("split-doppelganger", 0.2, 10));
    const RunResult m14 =
        runWorkload("kmeans", mkConfig("split-doppelganger", 0.2, 14));
    const double e10 =
        workloadOutputError("kmeans", m10.output, base.output);
    const double e14 =
        workloadOutputError("kmeans", m14.output, base.output);
    EXPECT_GE(e10, e14); // Fig 9a trend
}

TEST(Integration, DoppStoresFewerDataBlocksThanTags)
{
    const RunResult r =
        runWorkload("jpeg", mkConfig("split-doppelganger"));
    // Approximate similarity: multiple tags per data entry on average
    // (the paper reports 4.4 on its mix).
    EXPECT_GT(r.stats.value("run.tagsPerDataEntry"), 1.05);
}

TEST(Integration, SplitEnergyBelowBaseline)
{
    const EnergyModel em;
    const RunResult base =
        runWorkload("jpeg", mkConfig("baseline"));
    const RunResult dopp =
        runWorkload("jpeg", mkConfig("split-doppelganger"));
    const EnergyResult be = em.baseline(base.stats, "llc");
    const EnergyResult de = em.split(dopp.stats, "llc.precise", "llc.dopp",
                                     dopp.doppConfig);
    EXPECT_GT(be.dynamicPj / de.dynamicPj, 1.5);
    EXPECT_GT(be.leakagePj / de.leakagePj, 1.1);
}

TEST(Integration, RuntimeNearBaselineAtQuarterArray)
{
    const RunResult base =
        runWorkload("blackscholes", mkConfig("baseline"));
    const RunResult dopp =
        runWorkload("blackscholes", mkConfig("split-doppelganger"));
    const double norm =
        static_cast<double>(dopp.stats.counter("run.runtimeCycles")) /
        static_cast<double>(base.stats.counter("run.runtimeCycles"));
    EXPECT_LT(norm, 1.25);
    EXPECT_GT(norm, 0.8);
}

TEST(Integration, UniDoppHandlesMixedFootprints)
{
    // swaptions is ~all-precise; uniDopp must still run correctly and
    // its output must match the baseline closely (params are the only
    // approximate data).
    const RunResult base =
        runWorkload("swaptions", mkConfig("baseline"));
    const RunResult uni =
        runWorkload("swaptions", mkConfig("uniDoppelganger", 0.2, 14,
                                          0.5));
    EXPECT_EQ(base.output.size(), uni.output.size());
    const double err =
        workloadOutputError("swaptions", uni.output, base.output);
    EXPECT_LT(err, 0.5);
}

TEST(Integration, OffChipTrafficComparableToBaseline)
{
    const RunResult base =
        runWorkload("ferret", mkConfig("baseline"));
    const RunResult dopp =
        runWorkload("ferret", mkConfig("split-doppelganger"));
    auto traffic = [](const RunResult &r) {
        return static_cast<double>(r.stats.counter("mem.reads") +
                                   r.stats.counter("mem.writes"));
    };
    const double norm = traffic(dopp) / traffic(base);
    EXPECT_LT(norm, 1.5); // Fig 12: minimal impact
}

TEST(Integration, EvictionStatsPopulated)
{
    // A deliberately tiny data array (1/32) forces data evictions even
    // at reduced workload scale.
    const RunResult r = runWorkload(
        "canneal", mkConfig("split-doppelganger", 0.2, 14, 0.03125));
    const StatSnapshot &s = r.stats;
    EXPECT_GT(s.counter("llc.dopp.evictions") +
                  s.counter("llc.dopp.dataEvictions"),
              0u);
    EXPECT_GT(s.counter("llc.dopp.mapGens"), 0u);
    // The paper's avg-linked-tags statistic is measurable.
    EXPECT_GT(s.counter("llc.dopp.linkedTagsSamples"), 0u);
    EXPECT_GT(s.counter("llc.dopp.linkedTagsSum"), 0u);
}

TEST(Integration, HigherScaleMoreAccesses)
{
    const RunResult small =
        runWorkload("kmeans", mkConfig("baseline", 0.1));
    const RunResult big =
        runWorkload("kmeans", mkConfig("baseline", 0.3));
    EXPECT_GT(big.stats.counter("hierarchy.accesses"),
              small.stats.counter("hierarchy.accesses"));
}

TEST(Integration, AllWorkloadsRunOnAllOrganizations)
{
    for (const auto &name : workloadNames()) {
        for (const char *org : {"baseline", "split-doppelganger",
                                "uniDoppelganger", "dedup"}) {
            const RunResult r =
                runWorkload(name, mkConfig(org, 0.05));
            EXPECT_FALSE(r.output.empty())
                << name << " on " << org;
            EXPECT_GT(r.stats.counter("run.runtimeCycles"), 0u);
        }
    }
}

} // namespace dopp
