/**
 * @file
 * StatRegistry observability layer: registry/snapshot semantics, the
 * LlcStats compatibility view staying in sync with the registered
 * counter names, the LLC factory, and the schema-drift guard tying
 * every registered counter to the CSV/JSON exports.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unistd.h>

#include <gtest/gtest.h>

#include "harness/batch_runner.hh"
#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "harness/results_io.hh"
#include "sim/llc.hh"
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

} // namespace

// ---------------------------------------------------------------------
// StatRegistry core.
// ---------------------------------------------------------------------

TEST(StatRegistry, CounterIncrementAndSnapshot)
{
    StatRegistry reg;
    Counter &hits = reg.group("llc").counter("hits", "tag hits");
    EXPECT_EQ(hits.value(), 0u);
    ++hits;
    hits += 41;
    EXPECT_EQ(hits.value(), 42u);

    const StatSnapshot snap = reg.snapshot();
    EXPECT_TRUE(snap.has("llc.hits"));
    EXPECT_EQ(snap.counter("llc.hits"), 42u);
    EXPECT_EQ(snap.value("llc.hits"), 42.0);
}

TEST(StatRegistry, NestedGroupsComposeDottedNames)
{
    StatRegistry reg;
    StatGroup tag = reg.group("llc").group("dopp").group("tagArray");
    ++tag.counter("reads");
    EXPECT_TRUE(reg.contains("llc.dopp.tagArray.reads"));
    EXPECT_EQ(reg.snapshot().counter("llc.dopp.tagArray.reads"), 1u);
}

TEST(StatRegistry, DistributionExpandsToFourEntries)
{
    StatRegistry reg;
    Distribution &d =
        reg.group("qor").distribution("err", "observed errors");
    d.sample(0.5);
    d.sample(1.5);

    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("qor.err.count"), 2u);
    EXPECT_EQ(snap.value("qor.err.mean"), 1.0);
    EXPECT_EQ(snap.value("qor.err.min"), 0.5);
    EXPECT_EQ(snap.value("qor.err.max"), 1.5);
    EXPECT_EQ(snap.size(), 4u);
}

TEST(StatRegistry, CounterFnAndFormulaEvaluateAtSnapshotTime)
{
    StatRegistry reg;
    u64 external = 7;
    reg.group("mem").counterFn("reads", [&] { return external; });
    reg.group("llc").formula(
        "ratio", [&] { return static_cast<double>(external) / 2.0; });

    external = 10;
    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("mem.reads"), 10u);
    EXPECT_EQ(snap.value("llc.ratio"), 5.0);
}

TEST(StatRegistry, NamesAndDescriptionsAreRecorded)
{
    StatRegistry reg;
    reg.group("a").counter("x", "the x counter");
    reg.group("a").distribution("d");
    const std::vector<std::string> names = reg.names();
    const std::vector<std::string> expect = {"a.x", "a.d.count",
                                             "a.d.mean", "a.d.min",
                                             "a.d.max"};
    EXPECT_EQ(names, expect);
    EXPECT_EQ(reg.description("a.x"), "the x counter");
    EXPECT_TRUE(reg.description("a.unknown").empty());
    EXPECT_EQ(reg.statCount(), 2u);
}

TEST(StatRegistry, ResetPrefixRespectsDotBoundary)
{
    StatRegistry reg;
    Counter &a = reg.group("llc").counter("fetches");
    Counter &b = reg.group("llcx").counter("fetches");
    a += 5;
    b += 7;
    reg.reset("llc");
    EXPECT_EQ(a.value(), 0u);
    EXPECT_EQ(b.value(), 7u); // "llcx" is not under "llc"
    reg.reset();
    EXPECT_EQ(b.value(), 0u);
}

TEST(StatRegistryDeathTest, DuplicateNameIsFatal)
{
    StatRegistry reg;
    reg.group("llc").counter("fetches");
    EXPECT_EXIT(reg.group("llc").counter("fetches"),
                ::testing::ExitedWithCode(1), "registered twice");
}

TEST(StatRegistryDeathTest, MissingSnapshotNameIsFatal)
{
    StatRegistry reg;
    reg.group("llc").counter("fetches");
    const StatSnapshot snap = reg.snapshot();
    EXPECT_EXIT(snap.counter("llc.nope"),
                ::testing::ExitedWithCode(1), "no entry named");
}

// ---------------------------------------------------------------------
// Snapshot delta / json / equality.
// ---------------------------------------------------------------------

TEST(StatSnapshot, DeltaSubtractsAndClampsAtZero)
{
    StatRegistry reg;
    Counter &c = reg.group("llc").counter("fetches");
    c += 10;
    const StatSnapshot before = reg.snapshot();
    c += 5;
    const StatSnapshot after = reg.snapshot();
    EXPECT_EQ(after.delta(before).counter("llc.fetches"), 5u);

    // A counter reset mid-interval reads as zero progress, not a wrap.
    reg.reset();
    c += 3;
    const StatSnapshot wrapped = reg.snapshot();
    EXPECT_EQ(wrapped.delta(after).counter("llc.fetches"), 0u);
}

TEST(StatSnapshot, DeltaSubtractsFormulasArithmetically)
{
    StatRegistry reg;
    double v = 1.5;
    reg.group("run").formula("f", [&] { return v; });
    const StatSnapshot a = reg.snapshot();
    v = 4.0;
    const StatSnapshot b = reg.snapshot();
    EXPECT_EQ(b.delta(a).value("run.f"), 2.5);
}

TEST(StatSnapshot, JsonNestsDottedNames)
{
    StatRegistry reg;
    reg.group("llc").counter("fetches") += 2;
    reg.group("llc").group("tagArray").counter("reads") += 3;
    reg.group("mem").counter("reads") += 4;
    EXPECT_EQ(reg.snapshot().json(),
              "{\"llc\":{\"fetches\":2,\"tagArray\":{\"reads\":3}},"
              "\"mem\":{\"reads\":4}}");
}

TEST(StatSnapshot, EqualityComparesNamesAndValues)
{
    StatRegistry a, b;
    a.group("llc").counter("fetches") += 2;
    b.group("llc").counter("fetches") += 2;
    EXPECT_EQ(a.snapshot(), b.snapshot());
    b.group("llc").counter("hits");
    EXPECT_NE(a.snapshot(), b.snapshot());
}

// ---------------------------------------------------------------------
// LlcCounters ↔ llcStatFields sync (the compatibility view).
// ---------------------------------------------------------------------

TEST(LlcCounters, EveryCanonicalFieldIsRegistered)
{
    StatRegistry reg;
    LlcCounters ctr(reg.group("llc"));
    for (const LlcStatField &f : llcStatFields()) {
        EXPECT_TRUE(reg.contains(std::string("llc.") + f.name))
            << "llcStatFields() entry '" << f.name
            << "' has no registered counter — keep LlcCounters and "
               "statFieldTable in sync";
    }
    EXPECT_EQ(reg.statCount(), llcStatFields().size());
}

TEST(LlcCounters, ViewMirrorsCounterValues)
{
    StatRegistry reg;
    LlcCounters ctr(reg.group("llc"));
    ctr.fetches += 9;
    ctr.tagArray.reads += 4;
    ctr.degradedFills += 2;

    const LlcStats s = ctr.view();
    EXPECT_EQ(s.fetches, 9u);
    EXPECT_EQ(s.tagArray.reads, 4u);
    EXPECT_EQ(s.degradedFills, 2u);

    ctr.reset();
    EXPECT_EQ(ctr.view().fetches, 0u);
    EXPECT_EQ(reg.snapshot().counter("llc.tagArray.reads"), 0u);
}

TEST(LlcCounters, RegisteredViewMatchesDirectRegistration)
{
    // An aggregate view registered under "llc" must use the exact
    // names direct registration uses, so split/uniDopp exports line
    // up with baseline exports column-for-column.
    StatRegistry direct, viewed;
    LlcCounters ctr(direct.group("llc"));
    LlcStats fixed = ctr.view();
    registerLlcStatsView(viewed.group("llc"), [fixed] { return fixed; });

    std::vector<std::string> directNames = direct.names();
    std::vector<std::string> viewedNames = viewed.names();
    // The view adds the derived formulas on top of the counters.
    for (const std::string &n : directNames) {
        EXPECT_NE(std::find(viewedNames.begin(), viewedNames.end(), n),
                  viewedNames.end())
            << "view is missing '" << n << "'";
    }
    EXPECT_TRUE(viewed.contains("llc.missRate"));
    EXPECT_TRUE(viewed.contains("llc.avgLinkedTags"));
}

// ---------------------------------------------------------------------
// LLC factory.
// ---------------------------------------------------------------------

TEST(LlcFactory, BuiltinsAreRegistered)
{
    // The paper's five organizations, under the names reports,
    // journals and fingerprints carry.
    for (const char *org : {"baseline", "split-doppelganger",
                            "uniDoppelganger", "dedup", "bdi"})
        EXPECT_TRUE(llcRegistered(org)) << org;
    EXPECT_FALSE(llcRegistered("no-such-organization"));
    EXPECT_GE(registeredLlcNames().size(), 5u);
}

TEST(LlcFactoryDeathTest, UnknownOrganizationBuildIsFatal)
{
    RunConfig cfg = tinyRun("baseline");
    cfg.llcName = "no-such-organization";
    EXPECT_EXIT(runWorkload(cfg), ::testing::ExitedWithCode(1),
                "unknown organization 'no-such-organization'");
}

TEST(LlcFactory, CustomOrganizationPlugsIntoRunWorkload)
{
    static bool registered = false;
    if (!registered) {
        registered = true;
        registerLlc("test-tiny-conventional",
                    [](MainMemory &memory, const ApproxRegistry &reg,
                       const RunConfig &cfg, StatRegistry &stats,
                       const std::string &group) {
                        LlcBuilt built;
                        built.llc = std::make_unique<ConventionalLlc>(
                            memory, cfg.baselineBytes / 4, cfg.llcWays,
                            cfg.llcLatency, &reg, ReplPolicy::LRU,
                            &stats, group);
                        registerLlcFormulas(
                            stats.group(group),
                            [llc = built.llc.get()] {
                                return llc->stats();
                            });
                        return built;
                    });
    }
    RunConfig cfg = tinyRun("baseline");
    cfg.llcName = "test-tiny-conventional";
    const RunResult r = runWorkload(cfg);
    EXPECT_EQ(r.organization, "test-tiny-conventional");
    EXPECT_GT(r.stats.counter("llc.fetches"), 0u);
    EXPECT_TRUE(r.stats.has("llc.missRate"));
}

// ---------------------------------------------------------------------
// Schema-drift guard: every registered counter reaches the exports.
// ---------------------------------------------------------------------

TEST(SchemaDrift, EveryRegisteredStatExportsAndRoundTrips)
{
    for (const char *org : allOrgs) {
        const RunResult r = runWorkload(tinyRun(org));

        // CSV header carries every snapshot name, in order.
        const std::string header = runResultCsvHeader(r);
        for (const StatValue &v : r.stats.values()) {
            EXPECT_NE(header.find(v.name), std::string::npos)
                << org << ": column '" << v.name
                << "' missing from the CSV header";
        }

        // JSON export carries every leaf key.
        const std::string json = runResultJson(r);
        for (const StatValue &v : r.stats.values()) {
            const std::string leaf =
                v.name.substr(v.name.rfind('.') + 1);
            EXPECT_NE(json.find("\"" + leaf + "\":"),
                      std::string::npos)
                << org << ": leaf '" << leaf
                << "' missing from the JSON export";
        }

        // write → loadResultsCsv round-trips every value exactly.
        char buf[] = "/tmp/dopp-schema-XXXXXX";
        const int fd = mkstemp(buf);
        ASSERT_GE(fd, 0);
        ::close(fd);
        writeResultsCsv(buf, {r});
        const std::vector<LoadedRunRow> rows = loadResultsCsv(buf);
        std::remove(buf);
        ASSERT_EQ(rows.size(), 1u);
        EXPECT_EQ(rows[0].values.size(), r.stats.size());
        for (const StatValue &v : r.stats.values()) {
            EXPECT_EQ(rows[0].value(v.name), v.asDouble())
                << org << ": column '" << v.name
                << "' did not round-trip through the CSV";
        }
    }
}

TEST(SchemaDrift, CoreGroupsArePresentForEveryOrganization)
{
    for (const char *org : allOrgs) {
        const RunResult r = runWorkload(tinyRun(org));
        EXPECT_TRUE(r.stats.has("llc.fetches")) << org;
        EXPECT_TRUE(r.stats.has("llc.missRate")) << org;
        EXPECT_TRUE(r.stats.has("hierarchy.accesses"))
            << org;
        EXPECT_TRUE(r.stats.has("mem.reads")) << org;
        EXPECT_TRUE(r.stats.has("mem.writes")) << org;
        EXPECT_TRUE(r.stats.has("run.runtimeCycles"))
            << org;
        EXPECT_TRUE(r.stats.has("run.tagsPerDataEntry")) << org;
    }
}

TEST(SchemaDrift, SplitRegistersHalvesAndAggregate)
{
    const RunResult r = runWorkload(tinyRun("split-doppelganger"));
    EXPECT_TRUE(r.stats.has("llc.precise.fetches"));
    EXPECT_TRUE(r.stats.has("llc.dopp.fetches"));
    EXPECT_TRUE(r.stats.has("llc.route.degradedFills"));
    EXPECT_EQ(r.stats.counter("llc.fetches"),
              r.stats.counter("llc.precise.fetches") +
                  r.stats.counter("llc.dopp.fetches"));
}

TEST(SchemaDrift, MixedSchemasMergeIntoUnionColumns)
{
    const RunResult base = runWorkload(tinyRun("baseline"));
    const RunResult split = runWorkload(tinyRun("split-doppelganger"));
    const std::vector<std::string> cols =
        resultStatColumns({base, split});
    const auto hasCol = [&](const std::string &n) {
        return std::find(cols.begin(), cols.end(), n) != cols.end();
    };
    EXPECT_TRUE(hasCol("llc.fetches"));
    EXPECT_TRUE(hasCol("llc.precise.fetches"));

    // A baseline row leaves split-only columns *empty* — a backfilled
    // 0 would read as a measured value (e.g. "0% compression" for an
    // organization that has no compression counters). The loader skips
    // the empty cells, so the column is simply absent from that row.
    char buf[] = "/tmp/dopp-union-XXXXXX";
    const int fd = mkstemp(buf);
    ASSERT_GE(fd, 0);
    ::close(fd);
    writeResultsCsv(buf, {base, split});
    const std::vector<LoadedRunRow> rows = loadResultsCsv(buf);
    std::remove(buf);
    ASSERT_EQ(rows.size(), 2u);
    const auto rowHas = [](const LoadedRunRow &row,
                           const std::string &n) {
        for (const auto &[name, v] : row.values)
            if (name == n)
                return true;
        return false;
    };
    EXPECT_FALSE(rowHas(rows[0], "llc.precise.fetches"));
    EXPECT_GT(rows[1].value("llc.precise.fetches"), 0.0);
}

TEST(SchemaDrift, FaultAndQorGroupsExportWhenConfigured)
{
    RunConfig cfg = tinyRun("split-doppelganger", "blackscholes");
    cfg.fault.dataRate = 0.01;
    cfg.fault.tagMetaRate = 0.01;
    cfg.fault.memoryRate = 0.001;
    cfg.qor.budget = 0.05;
    const RunResult r = runWorkload(cfg);
    EXPECT_TRUE(r.stats.has("fault.injected.total"));
    EXPECT_TRUE(r.stats.has("fault.injected.memory-data"));
    EXPECT_TRUE(r.stats.has("fault.detected"));
    EXPECT_TRUE(r.stats.has("fault.repairs"));
    EXPECT_TRUE(r.stats.has("qor.observations"));
    EXPECT_TRUE(r.stats.has("qor.estimate"));
    EXPECT_TRUE(r.stats.has("qor.substitutionError.count"));
    EXPECT_TRUE(r.stats.has("qor.degradations"));

    // Clean runs carry no fault/qor groups at all.
    const RunResult clean = runWorkload(tinyRun("split-doppelganger"));
    EXPECT_FALSE(clean.stats.has("fault.injected.total"));
    EXPECT_FALSE(clean.stats.has("qor.observations"));
}

// ---------------------------------------------------------------------
// Determinism: registry dumps are identical for any job count.
// ---------------------------------------------------------------------

TEST(SchemaDrift, RegistryDumpsIdenticalAcrossJobCounts)
{
    std::vector<RunConfig> configs;
    configs.push_back(tinyRun("baseline", "kmeans"));
    configs.push_back(tinyRun("split-doppelganger", "jmeint"));
    configs.push_back(tinyRun("uniDoppelganger", "jpeg"));
    configs.push_back(tinyRun("bdi", "blackscholes"));

    BatchOptions serial;
    serial.jobs = 1;
    BatchOptions wide;
    wide.jobs = 4;
    const std::vector<RunResult> a = runBatch(configs, serial);
    const std::vector<RunResult> b = runBatch(configs, wide);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].stats, b[i].stats) << "config " << i;
        EXPECT_EQ(a[i].stats.json(), b[i].stats.json());
        EXPECT_EQ(runResultCsvRow(a[i]), runResultCsvRow(b[i]));
    }
}

// ---------------------------------------------------------------------
// DOPP_STATS_JSON: per-run JSONL dump.
// ---------------------------------------------------------------------

TEST(StatsJsonl, EveryRunAppendsOneLine)
{
    char buf[] = "/tmp/dopp-jsonl-XXXXXX";
    const int fd = mkstemp(buf);
    ASSERT_GE(fd, 0);
    ::close(fd);
    std::remove(buf); // runWorkload appends; start from nothing

    ASSERT_EQ(setenv("DOPP_STATS_JSON", buf, 1), 0);
    runWorkload(tinyRun("baseline"));
    runWorkload(tinyRun("uniDoppelganger", "jpeg"));
    ASSERT_EQ(unsetenv("DOPP_STATS_JSON"), 0);

    std::ifstream in(buf);
    ASSERT_TRUE(in.good());
    std::string line;
    u64 lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"stats\":{"), std::string::npos);
    }
    std::remove(buf);
    EXPECT_EQ(lines, 2u);
}

} // namespace dopp
