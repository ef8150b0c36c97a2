/**
 * @file
 * Unit and integration tests for the partitioned main-memory tier
 * (sim/mem_tier.hh, sim/memory.hh) and its cross-tier QoR guardrail
 * escalation (fault/qor_guardrail.hh, DESIGN.md §13).
 */

#include <gtest/gtest.h>

#include <string>

#include "energy/energy_model.hh"
#include "fault/fault_injector.hh"
#include "fault/qor_guardrail.hh"
#include "harness/experiment.hh"
#include "sim/mem_tier.hh"
#include "sim/memory.hh"
#include "util/stats.hh"

namespace dopp
{

namespace
{

/** Two approximate partitions after a precise one, for routing tests. */
MemTierConfig
twoApproxTier()
{
    MemTierConfig tier;
    tier.partitions.push_back(preciseDramProfile());
    tier.partitions.push_back(approxDramProfile(0.0, 0.0, 0));
    tier.partitions.push_back(nvmProfile(0.0));
    return tier;
}

} // namespace

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

TEST(MemTier, LegacyConstructionIsFlat)
{
    MainMemory legacy;
    EXPECT_FALSE(legacy.isTiered());
    EXPECT_EQ(legacy.partitionCount(), 1u);
    EXPECT_EQ(legacy.latency(), 160u);

    MemTierConfig empty;
    MainMemory fromEmpty(empty);
    EXPECT_FALSE(fromEmpty.isTiered());
    EXPECT_EQ(fromEmpty.partitionCount(), 1u);
}

TEST(MemTier, DefaultRouteIsPrecisePartition)
{
    MainMemory mem(twoApproxTier());
    EXPECT_TRUE(mem.isTiered());
    EXPECT_EQ(mem.partitionCount(), 3u);
    // No routes registered: everything hits the precise partition.
    EXPECT_EQ(mem.partitionOf(0x10000000), 0u);
    EXPECT_EQ(mem.partitionOf(0xdeadbeef), 0u);
}

TEST(MemTier, ApproxRegionsRoundRobinAcrossApproxPartitions)
{
    MainMemory mem(twoApproxTier());
    mem.routeApprox(0x10000000, 0x2000); // region A: pages 0x10000-01
    mem.routeApprox(0x20000000, 0x1000); // region B: page  0x20000

    // Region A -> first approx partition (index 1), whole region.
    EXPECT_EQ(mem.partitionOf(0x10000000), 1u);
    EXPECT_EQ(mem.partitionOf(0x10001fff), 1u);
    // Region B -> second approx partition (index 2).
    EXPECT_EQ(mem.partitionOf(0x20000000), 2u);
    // Unannotated data stays precise.
    EXPECT_EQ(mem.partitionOf(0x30000000), 0u);
}

TEST(MemTier, PartitionLatenciesReachTheCaller)
{
    MainMemory mem(twoApproxTier());
    mem.routeApprox(0x20000000, 64); // -> approx partition 1
    BlockData b = {};
    EXPECT_EQ(mem.readBlock(0x10000000, b.data()), 160u); // precise
    EXPECT_EQ(mem.readBlock(0x20000000, b.data()), 160u); // approx dram
    mem.routeApprox(0x30000000, 64); // -> nvm partition 2
    EXPECT_EQ(mem.readBlock(0x30000000, b.data()), 192u); // nvm read
}

// ---------------------------------------------------------------------
// NVM write buffer
// ---------------------------------------------------------------------

TEST(MemTier, WriteBufferAbsorbsThenStalls)
{
    MemTierConfig tier;
    tier.partitions.push_back(preciseDramProfile());
    MemPartitionProfile nvm = nvmProfile(0.0, 2); // depth 2
    tier.partitions.push_back(nvm);
    MainMemory mem(tier);
    mem.routeApprox(0x40000000, 0x1000);

    BlockData b = {};
    // Two writes fit the buffer at the cheap latency.
    EXPECT_EQ(mem.writeBlock(0x40000000, b.data()),
              nvm.bufferedWriteLatency);
    EXPECT_EQ(mem.writeBlock(0x40000040, b.data()),
              nvm.bufferedWriteLatency);
    // Third write finds it full: full write latency.
    EXPECT_EQ(mem.writeBlock(0x40000080, b.data()), nvm.writeLatency);
    // A read behind the full buffer stalls one drain, then drains one.
    EXPECT_EQ(mem.readBlock(0x40000000, b.data()),
              nvm.readLatency + nvm.writeLatency);
    // Buffer now has one free slot again.
    EXPECT_EQ(mem.writeBlock(0x400000c0, b.data()),
              nvm.bufferedWriteLatency);

    const MainMemory::PartitionCounters c = mem.partitionCounters(1);
    EXPECT_EQ(c.wbufHits, 3u);
    EXPECT_EQ(c.wbufStalls, 2u); // one write, one read
}

// ---------------------------------------------------------------------
// Per-partition fault models
// ---------------------------------------------------------------------

TEST(MemTier, BitErrorRateFlipsOnlyApproxReads)
{
    MemTierConfig tier;
    tier.partitions.push_back(preciseDramProfile());
    tier.partitions.push_back(approxDramProfile(1.0, 0.0, 0));
    MainMemory mem(tier);
    FaultConfig fc;
    FaultInjector fi(fc);
    mem.setFaultInjector(&fi);
    mem.routeApprox(0x20000000, 0x1000);

    BlockData b = {};
    mem.readBlock(0x10000000, b.data()); // precise: never flips
    EXPECT_EQ(fi.stats().totalInjected(), 0u);

    mem.readBlock(0x20000000, b.data()); // rate 1.0: always flips
    EXPECT_EQ(fi.stats().totalInjected(), 1u);
    ASSERT_EQ(fi.events().size(), 1u);
    EXPECT_EQ(fi.events()[0].domain, FaultDomain::MemoryData);
    EXPECT_EQ(fi.events()[0].field, 1u); // partition index
    EXPECT_EQ(mem.partitionCounters(1).bitFlips, 1u);

    // The corrupted block differs from zero in exactly one bit.
    unsigned ones = 0;
    for (u8 byte : b)
        ones += static_cast<unsigned>(__builtin_popcount(byte));
    EXPECT_EQ(ones, 1u);
}

TEST(MemTier, RefreshEpochsAccumulateRetentionDraws)
{
    MemTierConfig tier;
    tier.partitions.push_back(preciseDramProfile());
    // Every elapsed epoch flips (rate 1.0); epoch every 4 accesses.
    tier.partitions.push_back(approxDramProfile(0.0, 1.0, 4));
    MainMemory mem(tier);
    FaultConfig fc;
    FaultInjector fi(fc);
    mem.setFaultInjector(&fi);
    mem.routeApprox(0x20000000, 0x10000);

    BlockData b = {};
    // Write block X at epoch 0, then age the partition past two epochs
    // with reads of other blocks (each read scrubs its own block).
    mem.writeBlock(0x20000000, b.data());
    for (int i = 0; i < 8; ++i)
        mem.readBlock(0x20001000 + 64u * static_cast<u32>(i),
                      b.data());
    const u64 before = mem.partitionCounters(1).refreshFaults;
    // 9 accesses so far -> epoch 2; block X last refreshed at epoch 0:
    // exactly 2 retention draws, both firing at rate 1.0.
    mem.readBlock(0x20000000, b.data());
    const u64 after = mem.partitionCounters(1).refreshFaults;
    EXPECT_EQ(after - before, 2u);

    // The read scrubbed the block: an immediate re-read draws for at
    // most the epochs elapsed since (0 or 1, not 2).
    mem.readBlock(0x20000000, b.data());
    EXPECT_LE(mem.partitionCounters(1).refreshFaults - after, 1u);
}

TEST(MemTier, FaultSequenceIsDeterministic)
{
    auto runOnce = [] {
        MainMemory mem(defaultMemTier(0.2, 0.1));
        FaultConfig fc;
        fc.seed = 0x1234;
        FaultInjector fi(fc);
        mem.setFaultInjector(&fi);
        mem.routeApprox(0x20000000, 0x4000);
        BlockData b = {};
        for (int i = 0; i < 500; ++i) {
            mem.readBlock(0x20000000 + 64u * static_cast<u32>(i % 64),
                          b.data());
            if (i % 3 == 0)
                mem.writeBlock(0x20000000 +
                                   64u * static_cast<u32>(i % 64),
                               b.data());
        }
        return fi.events();
    };
    const auto a = runOnce();
    const auto b = runOnce();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_GT(a.size(), 0u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].entry, b[i].entry);
        EXPECT_EQ(a[i].field, b[i].field);
        EXPECT_EQ(a[i].bit, b[i].bit);
    }
}

// ---------------------------------------------------------------------
// Migration (tier-2 graceful degradation)
// ---------------------------------------------------------------------

TEST(MemTier, MigrateAndRestoreRoutes)
{
    MainMemory mem(twoApproxTier());
    mem.routeApprox(0x10000000, 0x2000); // 2 pages -> partition 1
    mem.routeApprox(0x20000000, 0x1000); // 1 page  -> partition 2

    EXPECT_FALSE(mem.migrated());
    EXPECT_EQ(mem.migrateApproxToPrecise(), 3u);
    EXPECT_TRUE(mem.migrated());
    EXPECT_EQ(mem.partitionOf(0x10000000), 0u);
    EXPECT_EQ(mem.partitionOf(0x20000000), 0u);
    // Idempotent.
    EXPECT_EQ(mem.migrateApproxToPrecise(), 0u);
    EXPECT_EQ(mem.migrations(), 1u);
    EXPECT_EQ(mem.pagesMigrated(), 3u);

    // A region annotated while migrated stays pinned precise.
    mem.routeApprox(0x30000000, 0x1000);
    EXPECT_EQ(mem.partitionOf(0x30000000), 0u);

    mem.restoreApproxRoutes();
    EXPECT_FALSE(mem.migrated());
    EXPECT_EQ(mem.partitionOf(0x10000000), 1u);
    EXPECT_EQ(mem.partitionOf(0x20000000), 2u);
    // The late region's recorded route reappears too.
    EXPECT_EQ(mem.partitionOf(0x30000000), 1u);
}

TEST(MemTier, GuardrailEscalatesToMigratedAndRecovers)
{
    QorConfig qc;
    qc.budget = 0.1;
    qc.window = 4;
    qc.minDwell = 2;
    qc.migrateFactor = 1.0;
    qc.migrateDwell = 4;
    QorGuardrail guard(qc);

    MainMemory mem(twoApproxTier());
    mem.routeApprox(0x10000000, 0x1000);
    guard.onMigrate = [&mem](bool migrate) {
        if (migrate)
            mem.migrateApproxToPrecise();
        else
            mem.restoreApproxRoutes();
    };

    // Sustained full-range error: degrade, then escalate.
    for (int i = 0; i < 64 && !guard.migrated(); ++i)
        guard.observeError(1.0);
    EXPECT_TRUE(guard.degraded());
    EXPECT_TRUE(guard.migrated());
    EXPECT_EQ(guard.migrationCount(), 1u);
    EXPECT_TRUE(mem.migrated());
    EXPECT_EQ(mem.partitionOf(0x10000000), 0u);

    // Clean observations decay the estimate: step all the way down.
    for (int i = 0; i < 256 && guard.degraded(); ++i)
        guard.observeClean();
    EXPECT_FALSE(guard.degraded());
    EXPECT_FALSE(guard.migrated());
    EXPECT_FALSE(mem.migrated());
    EXPECT_EQ(mem.partitionOf(0x10000000), 1u);
}

TEST(MemTier, MigrateFactorZeroKeepsTwoStateMachine)
{
    QorConfig qc;
    qc.budget = 0.1;
    qc.window = 4;
    qc.minDwell = 2;
    // migrateFactor left at the 0.0 default.
    QorGuardrail guard(qc);
    for (int i = 0; i < 512; ++i)
        guard.observeError(1.0);
    EXPECT_TRUE(guard.degraded());
    EXPECT_FALSE(guard.migrated());
    EXPECT_EQ(guard.migrationCount(), 0u);
}

// ---------------------------------------------------------------------
// Full-hierarchy integration (the dedicated cross-tier test)
// ---------------------------------------------------------------------

TEST(MemTierRun, CrossTierGuardrailMigratesRegionToPrecise)
{
    RunConfig cfg;
    cfg.workloadName = "kmeans";
    cfg.llcName = "baseline";
    cfg.workload.scale = 0.05;
    // A brutally unreliable approximate partition...
    cfg.memTier = defaultMemTier(0.9, 0.5);
    // ...and a tight budget with cross-tier escalation armed.
    cfg.qor.budget = 1e-4;
    cfg.qor.window = 16;
    cfg.qor.minDwell = 4;
    cfg.qor.migrateFactor = 1.0;
    cfg.qor.migrateDwell = 8;

    const RunResult r = runWorkload(cfg);
    // The guardrail degraded, escalated, and the memory recorded the
    // route migration in its own stats.
    EXPECT_GT(r.guardrailDegradations, 0u);
    EXPECT_GT(r.stats.counter("qor.migrations"), 0u);
    EXPECT_GT(r.stats.counter("mem.migrations"), 0u);
    EXPECT_GT(r.stats.counter("mem.pagesMigrated"), 0u);
    // Post-migration reads land in the precise partition.
    EXPECT_GT(r.stats.counter("mem.partition0.reads"), 0u);
    // The approximate partitions injected the faults that tripped it.
    EXPECT_GT(r.stats.counter("mem.partition1.bitFlips") +
                  r.stats.counter("mem.partition1.refreshFaults") +
                  r.stats.counter("mem.partition2.bitFlips"),
              0u);
}

TEST(MemTierRun, TieredRunIsDeterministic)
{
    RunConfig cfg;
    cfg.workloadName = "blackscholes";
    cfg.llcName = "split-doppelganger";
    cfg.workload.scale = 0.05;
    cfg.memTier = defaultMemTier(1e-3, 1e-3);
    cfg.qor.budget = 0.05;
    cfg.qor.migrateFactor = 2.0;

    const RunResult a = runWorkload(cfg);
    const RunResult b = runWorkload(cfg);
    EXPECT_EQ(a.runtime, b.runtime);
    ASSERT_EQ(a.output.size(), b.output.size());
    for (size_t i = 0; i < a.output.size(); ++i)
        EXPECT_EQ(a.output[i], b.output[i]);
    ASSERT_EQ(a.stats.size(), b.stats.size());
    for (size_t i = 0; i < a.stats.size(); ++i) {
        EXPECT_EQ(a.stats.values()[i].name, b.stats.values()[i].name);
        EXPECT_EQ(a.stats.values()[i].u, b.stats.values()[i].u);
        EXPECT_EQ(a.stats.values()[i].d, b.stats.values()[i].d);
    }
}

TEST(MemTierRun, LegacyConfigSnapshotLayoutUnchanged)
{
    RunConfig cfg;
    cfg.workloadName = "blackscholes";
    cfg.workload.scale = 0.05;
    const RunResult r = runWorkload(cfg);
    // Flat-memory runs must not grow partition or migration counters
    // (pre-tier journals replay bit-identically).
    EXPECT_TRUE(r.stats.has("mem.reads"));
    EXPECT_FALSE(r.stats.has("mem.migrations"));
    EXPECT_FALSE(r.stats.has("mem.partition0.reads"));
}

TEST(MemTierRun, PerPartitionStatsAndEnergyFlow)
{
    RunConfig cfg;
    cfg.workloadName = "kmeans";
    cfg.workload.scale = 0.05;
    cfg.memTier = defaultMemTier(0.0, 0.0); // faultless tier
    const RunResult r = runWorkload(cfg);

    const u64 partReads = r.stats.counter("mem.partition0.reads") +
        r.stats.counter("mem.partition1.reads") +
        r.stats.counter("mem.partition2.reads");
    EXPECT_EQ(partReads, r.memReads);
    // Approximate regions actually routed off the precise partition.
    EXPECT_GT(r.stats.counter("mem.partition1.reads") +
                  r.stats.counter("mem.partition2.reads"),
              0u);

    const MemTierEnergy e = memTierEnergy(cfg.memTier, r.stats);
    ASSERT_EQ(e.partitions.size(), 3u);
    EXPECT_GT(e.partitions[0].dynamicPj, 0.0);
    EXPECT_GT(e.totalPj(), 0.0);
    // Standby integrates runtime for every partition.
    for (const MemPartitionEnergy &p : e.partitions)
        EXPECT_GT(p.standbyPj, 0.0);
}

} // namespace dopp
