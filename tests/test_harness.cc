/**
 * @file
 * Tests for the experiment harness: configuration builders, the
 * runWorkload glue, and report formatting helpers.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "harness/report.hh"
#include "harness/results_io.hh"

namespace dopp
{

TEST(Report, Strfmt)
{
    EXPECT_EQ(strfmt("%d-%s", 5, "x"), "5-x");
    EXPECT_EQ(strfmt("%.2f", 1.234), "1.23");
}

TEST(Report, Pct)
{
    EXPECT_EQ(pct(0.379), "37.9%");
    EXPECT_EQ(pct(0.5, 0), "50%");
    EXPECT_EQ(pct(1.0), "100.0%");
}

TEST(Report, Times)
{
    EXPECT_EQ(times(2.55), "2.55x");
    EXPECT_EQ(times(1.407, 1), "1.4x");
}

TEST(Harness, LlcKindNames)
{
    // The organizations are named only by their factory strings; the
    // four the harness has always spelled this way must resolve.
    const std::vector<std::string> names = registeredLlcNames();
    for (const char *org : {"baseline", "split-doppelganger",
                            "uniDoppelganger", "dedup"}) {
        EXPECT_TRUE(llcRegistered(org)) << org;
        EXPECT_NE(std::find(names.begin(), names.end(), org), names.end())
            << org;
    }
}

TEST(Harness, SplitDoppConfigMatchesTable1)
{
    RunConfig cfg;
    const DoppConfig d = splitDoppConfig(cfg);
    EXPECT_EQ(d.tagEntries, 16u * 1024); // 1 MB tag-equivalent
    EXPECT_EQ(d.tagWays, 16u);
    EXPECT_EQ(d.dataEntries, 4u * 1024); // 1/4 of the tags
    EXPECT_EQ(d.mapBits, 14u);
    EXPECT_FALSE(d.unified);
}

TEST(Harness, UniDoppConfigMatchesTable1)
{
    RunConfig cfg;
    cfg.dataFraction = 0.5;
    const DoppConfig d = uniDoppConfig(cfg);
    EXPECT_EQ(d.tagEntries, 32u * 1024); // 2 MB tag-equivalent
    EXPECT_EQ(d.dataEntries, 16u * 1024); // 1 MB data array
    EXPECT_TRUE(d.unified);
}

TEST(Harness, ConfigKnobsPropagate)
{
    RunConfig cfg;
    cfg.mapBits = 12;
    cfg.hashMode = MapHashMode::AvgOnly;
    cfg.hashDataSetIndex = false;
    cfg.dataPolicy = ReplPolicy::RANDOM;
    const DoppConfig d = splitDoppConfig(cfg);
    EXPECT_EQ(d.mapBits, 12u);
    EXPECT_EQ(d.hashMode, MapHashMode::AvgOnly);
    EXPECT_FALSE(d.hashDataSetIndex);
    EXPECT_EQ(d.dataPolicy, ReplPolicy::RANDOM);
}

namespace
{

RunConfig
tinyRun(const std::string &org)
{
    RunConfig cfg;
    cfg.llcName = org;
    cfg.workload.scale = 0.05;
    return cfg;
}

} // namespace

TEST(Harness, BaselineRunProducesStats)
{
    const RunResult r = runWorkload("kmeans", tinyRun("baseline"));
    EXPECT_EQ(r.workload, "kmeans");
    EXPECT_EQ(r.organization, "baseline");
    EXPECT_GT(r.stats.counter("run.runtimeCycles"), 0u);
    EXPECT_FALSE(r.output.empty());
    EXPECT_GT(r.stats.counter("llc.fetches"), 0u);
    EXPECT_GT(r.stats.counter("hierarchy.accesses"), 0u);
    EXPECT_GT(r.stats.counter("mem.reads") + r.stats.counter("mem.writes"),
              0u);
}

TEST(Harness, RunIsDeterministic)
{
    const RunResult a = runWorkload("jmeint", tinyRun("split-doppelganger"));
    const RunResult b = runWorkload("jmeint", tinyRun("split-doppelganger"));
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(Harness, SplitRunSeparatesHalves)
{
    const RunResult r =
        runWorkload("jpeg", tinyRun("split-doppelganger"));
    const StatSnapshot &s = r.stats;
    EXPECT_GT(s.counter("llc.dopp.fetches"), 0u); // jpeg is ~all approx
    EXPECT_EQ(s.counter("llc.fetches"),
              s.counter("llc.dopp.fetches") +
                  s.counter("llc.precise.fetches"));
    EXPECT_GT(s.counter("llc.dopp.mapGens"), 0u);
    EXPECT_GT(s.value("run.tagsPerDataEntry"), 0.0);
}

TEST(Harness, UniRunReportsDoppConfig)
{
    RunConfig cfg = tinyRun("uniDoppelganger");
    cfg.dataFraction = 0.5;
    const RunResult r = runWorkload("kmeans", cfg);
    EXPECT_TRUE(r.doppConfig.unified);
    EXPECT_EQ(r.doppConfig.dataEntries, 16u * 1024);
}

TEST(Harness, DedupRunWorks)
{
    const RunResult r =
        runWorkload("blackscholes", tinyRun("dedup"));
    EXPECT_EQ(r.organization, "dedup");
    EXPECT_GT(r.stats.counter("llc.fetches"), 0u);
}

TEST(Harness, SnapshotHookDelivers)
{
    RunConfig cfg = tinyRun("baseline");
    cfg.workload.scale = 0.2;
    cfg.snapshotPeriod = 5000;
    unsigned snaps = 0;
    u64 blocks = 0;
    cfg.onSnapshot = [&](const Snapshot &s) {
        ++snaps;
        blocks += s.size();
    };
    runWorkload("jpeg", cfg);
    EXPECT_GT(snaps, 0u);
    EXPECT_GT(blocks, 0u);
}

TEST(Harness, ScaleFromEnvDefaultsToOne)
{
    // (Environment not set in the test harness.)
    EXPECT_GT(workloadScaleFromEnv(), 0.0);
}

// ---------------------------------------------------------------------
// Result export (results_io).
// ---------------------------------------------------------------------

TEST(ResultsIo, CsvRowMatchesHeaderArity)
{
    const RunResult r = runWorkload("kmeans", tinyRun("baseline"));
    const std::string header = runResultCsvHeader(r);
    const std::string row = runResultCsvRow(r);
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(header), commas(row));
    EXPECT_NE(row.find("kmeans,baseline"), std::string::npos);
}

TEST(ResultsIo, CsvContainsKeyCounters)
{
    const RunResult r =
        runWorkload("jpeg", tinyRun("split-doppelganger"));
    const std::string row = runResultCsvRow(r);
    std::ostringstream expect;
    expect << r.stats.counter("run.runtimeCycles");
    EXPECT_NE(row.find(expect.str()), std::string::npos);
    EXPECT_NE(runResultCsvHeader(r).find("llc.dopp.mapGens"),
              std::string::npos);
}

TEST(ResultsIo, WriteCsvFile)
{
    const RunResult r = runWorkload("kmeans", tinyRun("baseline"));
    const std::string path = "/tmp/dopp-results-test.csv";
    writeResultsCsv(path, {r, r});
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    u64 lines = 0;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 3u); // header + 2 rows
    std::remove(path.c_str());
}

TEST(ResultsIo, JsonIsWellFormedEnough)
{
    const RunResult r = runWorkload("kmeans", tinyRun("baseline"));
    const std::string json = runResultJson(r);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"workload\":\"kmeans\""), std::string::npos);
    EXPECT_NE(json.find("\"fetchMisses\":"), std::string::npos);
    // Balanced quotes.
    EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
}

TEST(ResultsIo, WriteJsonFile)
{
    const RunResult r = runWorkload("kmeans", tinyRun("baseline"));
    const std::string path = "/tmp/dopp-results-test.json";
    writeResultsJson(path, {r});
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string all = ss.str();
    EXPECT_EQ(all.front(), '[');
    std::remove(path.c_str());
}

namespace
{

/** Write @p text verbatim to a fresh temp file and return its path. */
std::string
writeTempCsv(const std::string &text)
{
    char buf[] = "/tmp/doppcsv-XXXXXX";
    const int fd = mkstemp(buf);
    EXPECT_GE(fd, 0);
    ::close(fd);
    std::ofstream out(buf);
    out << text;
    return buf;
}

} // namespace

TEST(ResultsIo, LoadCsvRoundTrips)
{
    RunConfig cfg = tinyRun("split-doppelganger");
    cfg.fault.dataRate = 0.01;
    cfg.fault.tagMetaRate = 0.01;
    RunResult r = runWorkload("blackscholes", cfg);

    char buf[] = "/tmp/doppcsv-XXXXXX";
    const int fd = mkstemp(buf);
    ASSERT_GE(fd, 0);
    ::close(fd);
    writeResultsCsv(buf, {r});

    const std::vector<LoadedRunRow> rows = loadResultsCsv(buf);
    std::remove(buf);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].workload, "blackscholes");
    EXPECT_EQ(rows[0].organization, r.organization);
    for (const char *name : {"run.runtimeCycles", "llc.fetches",
                             "llc.faultsInjected", "llc.faultsRepaired"}) {
        EXPECT_EQ(rows[0].value(name),
                  static_cast<double>(r.stats.counter(name)))
            << name;
    }
}

TEST(ResultsIoDeathTest, LoadMissingFileIsFatal)
{
    EXPECT_EXIT(loadResultsCsv("/tmp/definitely-not-there.csv"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(ResultsIoDeathTest, LoadEmptyFileIsFatal)
{
    const std::string path = writeTempCsv("");
    EXPECT_EXIT(loadResultsCsv(path), ::testing::ExitedWithCode(1),
                "line 1: empty file, expected a header row");
    std::remove(path.c_str());
}

TEST(ResultsIoDeathTest, LoadForeignHeaderIsFatal)
{
    const std::string path =
        writeTempCsv("alpha,beta,gamma\n1,2,3\n");
    EXPECT_EXIT(loadResultsCsv(path), ::testing::ExitedWithCode(1),
                "header");
    std::remove(path.c_str());
}

TEST(ResultsIoDeathTest, LoadRowWithMissingCellsIsFatal)
{
    const std::string path = writeTempCsv(
        "workload,organization,runtime_cycles,llc_fetches\n"
        "kmeans,baseline,123\n");
    EXPECT_EXIT(loadResultsCsv(path), ::testing::ExitedWithCode(1),
                "line 2: 3 cells but the header declares 4 columns");
    std::remove(path.c_str());
}

TEST(ResultsIoDeathTest, LoadNonNumericCellIsFatal)
{
    const std::string path = writeTempCsv(
        "workload,organization,runtime_cycles\n"
        "kmeans,baseline,fast\n");
    EXPECT_EXIT(loadResultsCsv(path), ::testing::ExitedWithCode(1),
                "column 'runtime_cycles': 'fast' is not a number");
    std::remove(path.c_str());
}

TEST(ResultsIoDeathTest, MissingColumnLookupIsFatal)
{
    const std::string path = writeTempCsv(
        "workload,organization,runtime_cycles\n"
        "kmeans,baseline,123\n");
    const std::vector<LoadedRunRow> rows = loadResultsCsv(path);
    std::remove(path.c_str());
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EXIT(rows[0].value("no_such_column"),
                ::testing::ExitedWithCode(1), "no_such_column");
}

TEST(Harness, FaultCountersReachRunResult)
{
    RunConfig cfg = tinyRun("uniDoppelganger");
    cfg.fault.dataRate = 0.05;
    cfg.fault.tagMetaRate = 0.02;
    cfg.fault.mtagMetaRate = 0.02;
    cfg.qor.budget = 0.001;
    cfg.qor.window = 16;
    cfg.qor.minDwell = 8;
    const RunResult r = runWorkload("kmeans", cfg);

    const StatSnapshot &s = r.stats;
    EXPECT_GT(s.counter("fault.injected.total"), 0u);
    EXPECT_EQ(r.faultTrace.size(), s.counter("fault.injected.total"));
    EXPECT_EQ(s.counter("llc.faultsDetected"), s.counter("fault.detected"));
    EXPECT_EQ(s.counter("llc.faultsRepaired"), s.counter("fault.repairs"));
    EXPECT_EQ(s.counter("llc.repairTagsDropped"),
              s.counter("fault.tagsDropped"));
    EXPECT_EQ(s.counter("llc.repairEntriesDropped"),
              s.counter("fault.entriesDropped"));
}

} // namespace dopp
