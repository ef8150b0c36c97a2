/**
 * @file
 * Sliced LLC front end (DESIGN.md §15): the slice-hash policies
 * (including the reconstructed Sandy Bridge XOR matrix), the
 * StatRegistry group merge, slice-config resolution and validation,
 * and the bit-identity pin {unsliced} = {slices=1} for every
 * registered organization.
 */

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "sim/llc.hh"
#include "sim/slice_hash.hh"
#include "sim/sliced_llc.hh"
#include "util/stats.hh"

namespace dopp
{
namespace
{

RunConfig
tinyRun(const std::string &org, const std::string &workload = "kmeans")
{
    RunConfig cfg;
    cfg.llcName = org;
    cfg.workloadName = workload;
    cfg.workload.scale = 0.05;
    return cfg;
}

constexpr const char *allOrgs[] = {
    "baseline", "split-doppelganger", "uniDoppelganger",
    "dedup",    "bdi",
};

/** Scoped environment override restoring the prior value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        const char *prev = std::getenv(name);
        if (prev) {
            had = true;
            old = prev;
        }
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had)
            setenv(name, old.c_str(), 1);
        else
            unsetenv(name);
    }

  private:
    const char *name;
    bool had = false;
    std::string old;
};

} // namespace

// ---------------------------------------------------------------------
// Slice hash policies.
// ---------------------------------------------------------------------

TEST(SliceHash, NamesRoundTrip)
{
    EXPECT_STREQ(sliceHashName(SliceHashKind::BitSelect), "bitselect");
    EXPECT_STREQ(sliceHashName(SliceHashKind::SandyBridge),
                 "sandybridge");
    EXPECT_EQ(sliceHashFromName("bitselect"), SliceHashKind::BitSelect);
    EXPECT_EQ(sliceHashFromName("sandybridge"),
              SliceHashKind::SandyBridge);
    SliceHashKind k;
    EXPECT_FALSE(sliceHashTryParse("mod", k));
}

TEST(SliceHash, SingleSliceAlwaysZero)
{
    for (Addr a : {Addr{0}, Addr{0x40}, Addr{0xdeadbeefc0}}) {
        EXPECT_EQ(sliceOf(a, 1, SliceHashKind::BitSelect), 0u);
        EXPECT_EQ(sliceOf(a, 1, SliceHashKind::SandyBridge), 0u);
    }
}

TEST(SliceHash, BitSelectIsBlockNumberModulo)
{
    for (u32 count : {2u, 4u, 8u, 16u}) {
        for (u64 blk = 0; blk < 64; ++blk) {
            const Addr addr = blk << blockOffsetBits;
            EXPECT_EQ(sliceOf(addr, count, SliceHashKind::BitSelect),
                      blk % count);
            // Offsets within a block never change the slice.
            EXPECT_EQ(sliceOf(addr + 63, count,
                              SliceHashKind::BitSelect),
                      blk % count);
        }
    }
}

TEST(SliceHash, SandyBridgeReproducesPublishedMatrix)
{
    // The reverse-engineered Sandy Bridge slice-selection matrix
    // [Maurice et al., RAID 2015]: selection bit i is the XOR
    // (parity) of these physical-address bits. Written out as bit
    // lists — independently of the masks in slice_hash.cc — so a
    // transcription error in either place fails this test.
    static const std::vector<unsigned> matrix[3] = {
        {6, 10, 12, 14, 16, 17, 18, 20, 22, 24, 25, 26, 27, 28, 30,
         32, 33, 35, 36},
        {7, 11, 13, 15, 17, 19, 20, 21, 22, 23, 24, 26, 28, 29, 31,
         33, 34, 35, 37},
        {8, 12, 13, 16, 19, 22, 23, 26, 27, 30, 31, 34, 35, 36, 37},
    };

    // Single-bit addresses read the matrix columns directly.
    for (unsigned b = 0; b < 38; ++b) {
        u32 expect = 0;
        for (unsigned i = 0; i < 3; ++i) {
            for (unsigned bit : matrix[i])
                if (bit == b)
                    expect |= 1u << i;
        }
        const Addr addr = Addr{1} << b;
        EXPECT_EQ(sliceOf(addr, 8, SliceHashKind::SandyBridge), expect)
            << "address bit " << b;
    }

    // Multi-bit addresses exercise the parity accumulation.
    auto reference = [&](Addr addr, unsigned bits) {
        u32 idx = 0;
        for (unsigned i = 0; i < bits; ++i) {
            unsigned parity = 0;
            for (unsigned bit : matrix[i])
                parity ^= static_cast<unsigned>((addr >> bit) & 1);
            idx |= parity << i;
        }
        return idx;
    };
    u64 x = 0x243F6A8885A308D3ULL; // arbitrary fixed bit soup
    for (int i = 0; i < 256; ++i) {
        const Addr addr = x & ((Addr{1} << 38) - 1);
        EXPECT_EQ(sliceOf(addr, 8, SliceHashKind::SandyBridge),
                  reference(addr, 3));
        EXPECT_EQ(sliceOf(addr, 4, SliceHashKind::SandyBridge),
                  reference(addr, 2));
        EXPECT_EQ(sliceOf(addr, 2, SliceHashKind::SandyBridge),
                  reference(addr, 1));
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
}

TEST(SliceHash, PartitionIsTotalAndCoversEverySlice)
{
    for (SliceHashKind kind :
         {SliceHashKind::BitSelect, SliceHashKind::SandyBridge}) {
        for (u32 count : {2u, 4u, 8u}) {
            std::vector<u64> perSlice(count, 0);
            for (u64 blk = 0; blk < 4096; ++blk) {
                const u32 s = sliceOf(blk << blockOffsetBits, count,
                                      kind);
                ASSERT_LT(s, count); // total: every address has a slice
                ++perSlice[s];
            }
            for (u32 s = 0; s < count; ++s)
                EXPECT_GT(perSlice[s], 0u)
                    << sliceHashName(kind) << " slice " << s
                    << " of " << count << " never selected";
        }
    }
}

TEST(SliceHashDeathTest, NonPowerOfTwoCountIsFatal)
{
    EXPECT_EXIT(sliceOf(0, 3, SliceHashKind::BitSelect),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(SliceHashDeathTest, SandyBridgeBeyondEightSlicesIsFatal)
{
    EXPECT_EXIT(sliceOf(0, 16, SliceHashKind::SandyBridge),
                ::testing::ExitedWithCode(1), "at most");
}

// ---------------------------------------------------------------------
// StatRegistry group merge.
// ---------------------------------------------------------------------

TEST(StatMerge, CountersSumAcrossChildren)
{
    StatRegistry reg;
    Counter &a = reg.group("llc.slice0").counter("fetches");
    Counter &b = reg.group("llc.slice1").counter("fetches");
    a += 3;
    b += 4;
    reg.registerGroupMerge("llc", {"llc.slice0", "llc.slice1"});

    EXPECT_EQ(reg.snapshot().counter("llc.fetches"), 7u);
    // The merge is a live view, not a copy.
    a += 10;
    EXPECT_EQ(reg.snapshot().counter("llc.fetches"), 17u);
}

TEST(StatMerge, CounterFnChildrenSumToo)
{
    StatRegistry reg;
    u64 x = 5, y = 11;
    reg.group("m.s0").counterFn("reads", [&] { return x; });
    reg.group("m.s1").counterFn("reads", [&] { return y; });
    reg.registerGroupMerge("m", {"m.s0", "m.s1"});
    EXPECT_EQ(reg.snapshot().counter("m.reads"), 16u);
    y = 100;
    EXPECT_EQ(reg.snapshot().counter("m.reads"), 105u);
}

TEST(StatMerge, DistributionsMergeCountWeighted)
{
    StatRegistry reg;
    Distribution &a = reg.group("q.s0").distribution("err");
    Distribution &b = reg.group("q.s1").distribution("err");
    a.sample(1.0);
    a.sample(3.0); // mean 2, count 2
    b.sample(10.0); // mean 10, count 1
    reg.registerGroupMerge("q", {"q.s0", "q.s1"});

    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("q.err.count"), 3u);
    EXPECT_DOUBLE_EQ(snap.value("q.err.mean"), 14.0 / 3.0);
    EXPECT_DOUBLE_EQ(snap.value("q.err.min"), 1.0);
    EXPECT_DOUBLE_EQ(snap.value("q.err.max"), 10.0);
}

TEST(StatMerge, EmptyDistributionChildrenStayNeutral)
{
    StatRegistry reg;
    Distribution &a = reg.group("q.s0").distribution("err");
    reg.group("q.s1").distribution("err"); // never sampled
    a.sample(2.0);
    reg.registerGroupMerge("q", {"q.s0", "q.s1"});

    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("q.err.count"), 1u);
    EXPECT_DOUBLE_EQ(snap.value("q.err.mean"), 2.0);
    // An empty child must not drag min to +inf's 0-report or max to
    // -inf; extrema only consider non-empty children.
    EXPECT_DOUBLE_EQ(snap.value("q.err.min"), 2.0);
    EXPECT_DOUBLE_EQ(snap.value("q.err.max"), 2.0);

    StatRegistry allEmpty;
    allEmpty.group("q.s0").distribution("err");
    allEmpty.group("q.s1").distribution("err");
    allEmpty.registerGroupMerge("q", {"q.s0", "q.s1"});
    const StatSnapshot empty = allEmpty.snapshot();
    EXPECT_EQ(empty.counter("q.err.count"), 0u);
    EXPECT_DOUBLE_EQ(empty.value("q.err.min"), 0.0);
    EXPECT_DOUBLE_EQ(empty.value("q.err.max"), 0.0);
}

TEST(StatMerge, FormulasAreSkippedNotSummed)
{
    StatRegistry reg;
    reg.group("llc.slice0").counter("fetches");
    reg.group("llc.slice0").formula("missRate", [] { return 0.5; });
    reg.group("llc.slice1").counter("fetches");
    reg.group("llc.slice1").formula("missRate", [] { return 0.7; });
    reg.registerGroupMerge("llc", {"llc.slice0", "llc.slice1"});

    EXPECT_TRUE(reg.contains("llc.fetches"));
    // Derived stats do not sum; the caller re-registers them over the
    // merged view (registerLlcFormulas in the factory).
    EXPECT_FALSE(reg.contains("llc.missRate"));
}

TEST(StatMergeDeathTest, MissingChildStatIsFatal)
{
    StatRegistry reg;
    reg.group("llc.slice0").counter("fetches");
    reg.group("llc.slice1").counter("misses"); // no "fetches"
    EXPECT_EXIT(
        reg.registerGroupMerge("llc", {"llc.slice0", "llc.slice1"}),
        ::testing::ExitedWithCode(1), "fetches");
}

TEST(StatMergeDeathTest, KindMismatchIsFatal)
{
    StatRegistry reg;
    reg.group("llc.slice0").counter("err");
    reg.group("llc.slice1").distribution("err");
    EXPECT_EXIT(
        reg.registerGroupMerge("llc", {"llc.slice0", "llc.slice1"}),
        ::testing::ExitedWithCode(1), "err");
}

// ---------------------------------------------------------------------
// Slice-config resolution: explicit > environment > default.
// ---------------------------------------------------------------------

TEST(SliceConfigResolution, DefaultsAreUnsliced)
{
    ScopedEnv s("DOPP_SLICES", nullptr);
    ScopedEnv h("DOPP_SLICE_HASH", nullptr);
    const SliceConfig sc = resolvedSliceConfig(RunConfig{});
    EXPECT_EQ(sc.count, 0u);
    EXPECT_EQ(sc.hash, SliceHashKind::BitSelect);
    EXPECT_EQ(sc.mapSpace, MapSpaceMode::Shared);
}

TEST(SliceConfigResolution, EnvironmentFillsUnsetFields)
{
    ScopedEnv s("DOPP_SLICES", "4");
    ScopedEnv h("DOPP_SLICE_HASH", "sandybridge");
    const SliceConfig sc = resolvedSliceConfig(RunConfig{});
    EXPECT_EQ(sc.count, 4u);
    EXPECT_EQ(sc.hash, SliceHashKind::SandyBridge);
}

TEST(SliceConfigResolution, ExplicitFieldsBeatEnvironment)
{
    ScopedEnv s("DOPP_SLICES", "4");
    ScopedEnv h("DOPP_SLICE_HASH", "sandybridge");
    RunConfig cfg;
    cfg.sliceCount = 8;
    cfg.sliceHash = "bitselect";
    const SliceConfig sc = resolvedSliceConfig(cfg);
    EXPECT_EQ(sc.count, 8u);
    EXPECT_EQ(sc.hash, SliceHashKind::BitSelect);
}

TEST(SliceConfigResolutionDeathTest, BadHashTokenNamesTheVariable)
{
    ScopedEnv h("DOPP_SLICE_HASH", "mod3");
    EXPECT_EXIT(resolvedSliceConfig(RunConfig{}),
                ::testing::ExitedWithCode(1), "DOPP_SLICE_HASH");
}

TEST(SliceConfigResolutionDeathTest, GarbageSliceCountIsFatal)
{
    ScopedEnv s("DOPP_SLICES", "two");
    EXPECT_EXIT(resolvedSliceConfig(RunConfig{}),
                ::testing::ExitedWithCode(1), "DOPP_SLICES");
}

TEST(SliceConfigResolutionDeathTest, NonPowerOfTwoCountIsFatal)
{
    RunConfig cfg;
    cfg.sliceCount = 6;
    EXPECT_EXIT(resolvedSliceConfig(cfg),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(SliceConfigResolutionDeathTest, SandyBridgeCapIsFatal)
{
    RunConfig cfg;
    cfg.sliceCount = 16;
    cfg.sliceHash = "sandybridge";
    EXPECT_EXIT(resolvedSliceConfig(cfg),
                ::testing::ExitedWithCode(1), "at most");
}

TEST(SliceConfigResolutionDeathTest, IndivisibleCapacityIsFatal)
{
    RunConfig cfg;
    cfg.sliceCount = 128;
    cfg.baselineBytes = 64;
    EXPECT_EXIT(resolvedSliceConfig(cfg),
                ::testing::ExitedWithCode(1), "does not divide");
}

TEST(SliceConfigResolutionDeathTest, BadLlcGeometryIsFatalBeforeBuild)
{
    // Zero ways would divide by zero in the LLC constructor, and a
    // capacity below one set would fatal there; runWorkload names the
    // problem before it builds anything.
    RunConfig noWays;
    noWays.llcWays = 0;
    EXPECT_EXIT(runWorkload("kmeans", noWays),
                ::testing::ExitedWithCode(1), "llcWays must be non-zero");
    RunConfig tiny;
    tiny.baselineBytes = 1000;
    EXPECT_EXIT(runWorkload("kmeans", tiny),
                ::testing::ExitedWithCode(1), "whole 16-way sets");
}

TEST(SliceConfigResolutionDeathTest, PerSliceNeedsMapBitsHeadroom)
{
    RunConfig cfg;
    cfg.sliceCount = 4;
    cfg.mapBits = 2;
    cfg.mapSpaceMode = MapSpaceMode::PerSlice;
    EXPECT_EXIT(resolvedSliceConfig(cfg),
                ::testing::ExitedWithCode(1), "mapBits");
}

TEST(SliceConfigResolution, MapSpaceModeNamesRoundTrip)
{
    EXPECT_STREQ(mapSpaceModeName(MapSpaceMode::Shared), "shared");
    EXPECT_STREQ(mapSpaceModeName(MapSpaceMode::PerSlice),
                 "per-slice");
    EXPECT_EQ(mapSpaceModeFromName("shared"), MapSpaceMode::Shared);
    EXPECT_EQ(mapSpaceModeFromName("per-slice"),
              MapSpaceMode::PerSlice);
}

// ---------------------------------------------------------------------
// SlicedLlc routing.
// ---------------------------------------------------------------------

namespace
{

/** A 4-slice front end over tiny conventional slices. */
std::unique_ptr<SlicedLlc>
makeSliced(MainMemory &mem, StatRegistry &stats,
           SliceHashKind hash = SliceHashKind::BitSelect)
{
    std::vector<std::unique_ptr<LastLevelCache>> slices;
    for (u32 i = 0; i < 4; ++i) {
        slices.push_back(std::make_unique<ConventionalLlc>(
            mem, 16 * 1024, 4, 6, nullptr, ReplPolicy::LRU, &stats,
            "llc.slice" + std::to_string(i)));
    }
    return std::make_unique<SlicedLlc>(mem, std::move(slices), hash,
                                       &stats, "llc");
}

} // namespace

TEST(SlicedLlc, RoutesEveryBlockToItsHashedSlice)
{
    MainMemory mem;
    StatRegistry stats;
    auto llc = makeSliced(mem, stats);

    BlockData buf;
    for (u64 blk = 0; blk < 64; ++blk) {
        const Addr addr = blk << blockOffsetBits;
        llc->fetch(addr, buf.data());
        const u32 home = llc->sliceOfAddr(addr);
        EXPECT_TRUE(llc->slice(home).contains(addr));
        for (u32 s = 0; s < llc->sliceCount(); ++s) {
            if (s != home) {
                EXPECT_FALSE(llc->slice(s).contains(addr));
            }
        }
        EXPECT_TRUE(llc->contains(addr));
    }
}

TEST(SlicedLlc, StatsSumSlicesAndMergeMatchesView)
{
    MainMemory mem;
    StatRegistry stats;
    auto llc = makeSliced(mem, stats);
    stats.registerGroupMerge("llc", {"llc.slice0", "llc.slice1",
                                     "llc.slice2", "llc.slice3"});

    BlockData buf;
    for (u64 blk = 0; blk < 32; ++blk)
        llc->fetch(blk << blockOffsetBits, buf.data());

    EXPECT_EQ(llc->stats().fetches, 32u);
    const StatSnapshot snap = stats.snapshot();
    u64 perSlice = 0;
    for (u32 s = 0; s < 4; ++s)
        perSlice += snap.counter("llc.slice" + std::to_string(s) +
                                 ".fetches");
    EXPECT_EQ(perSlice, 32u);
    EXPECT_EQ(snap.counter("llc.fetches"), 32u);
}

// ---------------------------------------------------------------------
// The single-slice pin, across every organization.
// ---------------------------------------------------------------------

TEST(SlicePins, SingleSliceIsBitIdenticalToUnsliced)
{
    for (const char *org : allOrgs) {
        RunConfig unsliced = tinyRun(org);
        const RunResult a = runWorkload(unsliced);

        RunConfig one = tinyRun(org);
        one.sliceCount = 1;
        const RunResult b = runWorkload(one);

        EXPECT_EQ(a.stats, b.stats) << org;
        EXPECT_EQ(a.output, b.output) << org;
    }
}

TEST(SlicePins, FactoryOrganizationsSingleSliceIsBitIdentical)
{
    // The three organizations beyond the paper's five must satisfy
    // the same pins: builders that honor stat_group compose with the
    // sliced front end without per-organization edits.
    for (const char *name : {"uniDoppBdi", "gdish", "approxDedup"}) {
        RunConfig unsliced = tinyRun(name);
        const RunResult a = runWorkload(unsliced);

        RunConfig one = unsliced;
        one.sliceCount = 1;
        const RunResult b = runWorkload(one);

        EXPECT_EQ(a.stats, b.stats) << name;
        EXPECT_EQ(a.output, b.output) << name;
    }
}

// ---------------------------------------------------------------------
// Sliced-run structure.
// ---------------------------------------------------------------------

TEST(SlicedRun, PerSliceGroupsAppearAndAggregateSums)
{
    RunConfig cfg = tinyRun("baseline");
    cfg.sliceCount = 4;
    const RunResult r = runWorkload(cfg);

    u64 perSlice = 0;
    for (u32 s = 0; s < 4; ++s) {
        const std::string name =
            "llc.slice" + std::to_string(s) + ".fetches";
        ASSERT_TRUE(r.stats.has(name)) << name;
        perSlice += r.stats.counter(name);
    }
    EXPECT_EQ(r.stats.counter("llc.fetches"), perSlice);
    EXPECT_GT(perSlice, 0u);
    // Derived formulas exist over the merged view.
    EXPECT_TRUE(r.stats.has("llc.missRate"));
}

TEST(SlicedRun, UnslicedStatNameSetSurvivesUnderAggregate)
{
    // Report layers and benches read "llc.*" names; the merged
    // aggregate must expose exactly the unsliced set.
    const RunResult flat = runWorkload(tinyRun("split-doppelganger"));
    RunConfig cfg = tinyRun("split-doppelganger");
    cfg.sliceCount = 2;
    const RunResult sliced = runWorkload(cfg);

    for (const StatValue &v : flat.stats.values()) {
        if (v.name.rfind("llc.", 0) == 0) {
            EXPECT_TRUE(sliced.stats.has(v.name)) << v.name;
        }
    }
}

TEST(SlicedRun, SplitHalvesAggregateAcrossSlices)
{
    RunConfig cfg = tinyRun("split-doppelganger");
    cfg.sliceCount = 2;
    const RunResult sliced = runWorkload(cfg);
    const RunResult flat = runWorkload(tinyRun("split-doppelganger"));

    // The merged halves sum both slices' halves — a sliced run must
    // not silently report only slice 0.
    EXPECT_EQ(sliced.stats.counter("llc.precise.fetches") +
                  sliced.stats.counter("llc.dopp.fetches"),
              sliced.stats.counter("llc.slice0.precise.fetches") +
                  sliced.stats.counter("llc.slice1.precise.fetches") +
                  sliced.stats.counter("llc.slice0.dopp.fetches") +
                  sliced.stats.counter("llc.slice1.dopp.fetches"));
    EXPECT_GT(flat.stats.counter("llc.fetches"), 0u);
}

TEST(SlicedRun, MapSpaceModeScalesPerSliceMapBits)
{
    RunConfig shared = tinyRun("split-doppelganger");
    shared.sliceCount = 4;
    const RunResult a = runWorkload(shared);
    EXPECT_EQ(a.doppConfig.mapBits, shared.mapBits);

    RunConfig perSlice = tinyRun("split-doppelganger");
    perSlice.sliceCount = 4;
    perSlice.mapSpaceMode = MapSpaceMode::PerSlice;
    const RunResult b = runWorkload(perSlice);
    EXPECT_EQ(b.doppConfig.mapBits, perSlice.mapBits - 2);

    // The map-space squeeze is observable, not cosmetic: the two modes
    // are distinct configurations with distinct results.
    EXPECT_NE(a.stats, b.stats);
}

TEST(SlicedRun, SandyBridgeHashRunsEveryOrganization)
{
    for (const char *org : allOrgs) {
        RunConfig cfg = tinyRun(org);
        cfg.sliceCount = 8;
        cfg.sliceHash = "sandybridge";
        const RunResult r = runWorkload(cfg);
        EXPECT_GT(r.stats.counter("llc.fetches"), 0u)
            << org;
    }
}

} // namespace dopp
