/**
 * @file
 * Campaign resilience tests (DESIGN.md §11): journal record round-trip
 * and corruption tolerance, config fingerprints, checkpoint/resume
 * equivalence (a campaign killed after any number of completed runs
 * and resumed at any job count must produce bit-identical final
 * results to an uninterrupted jobs=1 execution), per-run watchdog
 * timeouts, retry with backoff, and the graceful-shutdown signal
 * handler.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/batch_runner.hh"
#include "harness/campaign_service.hh"
#include "harness/journal.hh"
#include "harness/results_io.hh"
#include "util/fileio.hh"

#include "test_support.hh"

namespace dopp
{

namespace
{

/** A fresh temp path that is deleted when the holder dies. */
struct TempPath
{
    std::string path;

    TempPath()
    {
        char buf[] = "/tmp/doppjournal-XXXXXX";
        const int fd = mkstemp(buf);
        EXPECT_GE(fd, 0);
        ::close(fd);
        path = buf;
    }

    ~TempPath() { std::remove(path.c_str()); }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The 200-config campaign of the resume-equivalence suite: four
 * workload/organization variants, each instance with its own seed so
 * every fingerprint is distinct. */
std::vector<RunConfig>
campaign200()
{
    const RunConfig variants[] = {
        tinyConfig("kmeans", "baseline", 0.01),
        tinyConfig("kmeans", "split-doppelganger", 0.01),
        tinyConfig("blackscholes", "uniDoppelganger", 0.01),
        tinyConfig("inversek2j", "bdi", 0.01),
    };
    std::vector<RunConfig> configs;
    configs.reserve(200);
    for (u64 i = 0; i < 200; ++i) {
        RunConfig cfg = variants[i % 4];
        cfg.workload.seed = 1000 + i;
        configs.push_back(std::move(cfg));
    }
    return configs;
}

} // namespace

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

TEST(Journal, FingerprintIsDeterministicAndDiscriminating)
{
    const RunConfig base = tinyConfig("kmeans", "split-doppelganger");
    const std::string fp = configFingerprint(base);

    // Format: "<workload>/<organization>@<16 hex>".
    EXPECT_EQ(fp.rfind("kmeans/split-doppelganger@", 0), 0u);
    EXPECT_EQ(fp.size(),
              std::string("kmeans/split-doppelganger@").size() + 16);

    // Same config, same fingerprint.
    EXPECT_EQ(configFingerprint(base), fp);

    // Every result-affecting field moves the fingerprint.
    RunConfig c = base;
    c.workload.seed += 1;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.mapBits = 10;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.dataFraction = 0.5;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.fault.dataRate = 0.01;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.qor.budget = 0.001;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.llcName = "uniDoppelganger";
    EXPECT_NE(configFingerprint(c), fp);

    // Trace capture and the abort flag never affect results, so they
    // must not move the fingerprint (a trace-recording config is
    // re-executed by policy, not by fingerprint mismatch).
    c = base;
    c.tracePath = "/tmp/some-trace";
    std::atomic<bool> flag{false};
    c.abortFlag = &flag;
    EXPECT_EQ(configFingerprint(c), fp);
    EXPECT_FALSE(configResumable(c));
    EXPECT_TRUE(configResumable(base));

    // A snapshot period alone takes no snapshot; analyses add stats,
    // so the list, its order and then the period key the run.
    c = base;
    c.snapshotPeriod = 1000;
    EXPECT_EQ(configFingerprint(c), fp);
    c.snapshotAnalyses = {"map14"};
    const std::string fpSnap = configFingerprint(c);
    EXPECT_NE(fpSnap, fp);
    EXPECT_TRUE(configResumable(c));
    c.snapshotPeriod = 2000;
    EXPECT_NE(configFingerprint(c), fpSnap);
    c.snapshotPeriod = 1000;
    c.snapshotAnalyses = {"map14", "bdi"};
    const std::string fpTwo = configFingerprint(c);
    EXPECT_NE(fpTwo, fpSnap);
    c.snapshotAnalyses = {"bdi", "map14"};
    EXPECT_NE(configFingerprint(c), fpTwo);
}

TEST(Journal, FingerprintDistinguishesMemoryTierFields)
{
    RunConfig base = tinyConfig("kmeans", "baseline");
    base.memTier = defaultMemTier();
    const std::string fp = configFingerprint(base);
    EXPECT_EQ(configFingerprint(base), fp);

    // A flat-memory config fingerprints differently from a tiered one.
    RunConfig c = tinyConfig("kmeans", "baseline");
    EXPECT_NE(configFingerprint(c), fp);

    // Every per-partition field moves the fingerprint.
    c = base;
    c.memTier.partitions[1].bitErrorRate *= 10.0;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[1].refreshFaultRate *= 10.0;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[1].refreshIntervalAccesses = 128;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[2].readLatency += 1;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[2].writeLatency += 1;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[2].writeBufferDepth += 1;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[2].bufferedWriteLatency += 1;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[0].readEnergyPj += 1.0;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[0].writeEnergyPj += 1.0;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[0].standbyPowerMw += 1.0;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[0].kind = MemPartitionKind::Nvm;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions[0].name = "renamed";
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.memTier.partitions.pop_back();
    EXPECT_NE(configFingerprint(c), fp);

    // The cross-tier guardrail knobs are result-affecting too.
    c = base;
    c.qor.migrateFactor = 1.5;
    EXPECT_NE(configFingerprint(c), fp);
    c = base;
    c.qor.migrateDwell = 99;
    EXPECT_NE(configFingerprint(c), fp);
}

TEST(Journal, FingerprintDistinguishesSliceFields)
{
    const RunConfig base = tinyConfig("kmeans", "split-doppelganger");
    const std::string fp = configFingerprint(base);

    // The slice layout changes what is built, so every resolved knob
    // moves the fingerprint.
    RunConfig c = base;
    c.sliceCount = 4;
    const std::string fp4 = configFingerprint(c);
    EXPECT_NE(fp4, fp);
    c.sliceCount = 2;
    EXPECT_NE(configFingerprint(c), fp4);
    c = base;
    c.sliceCount = 4;
    c.sliceHash = "sandybridge";
    EXPECT_NE(configFingerprint(c), fp4);
    c = base;
    c.sliceCount = 4;
    c.mapSpaceMode = MapSpaceMode::PerSlice;
    EXPECT_NE(configFingerprint(c), fp4);

    // A slices=1 run is bit-identical to an unsliced one but is a
    // different build; it keys separately like any other config knob.
    c = base;
    c.sliceCount = 1;
    EXPECT_NE(configFingerprint(c), fp);

    // The fingerprint resolves through the same environment path the
    // factory builds from, so DOPP_SLICES moves it too.
    setenv("DOPP_SLICES", "4", 1);
    EXPECT_EQ(configFingerprint(base), fp4);
    unsetenv("DOPP_SLICES");
    EXPECT_EQ(configFingerprint(base), fp);
}

TEST(Journal, FingerprintsArePinned)
{
    // Existing journals and spooled batches resume only while these
    // keys stay put: any change to the fingerprint's field list,
    // names, order or formatting shows up here first.
    unsetenv("DOPP_SLICES");
    unsetenv("DOPP_SLICE_HASH");

    RunConfig defaults;
    defaults.workloadName = "kmeans";
    EXPECT_EQ(configFingerprint(defaults),
              "kmeans/baseline@570409a549717d2e");

    RunConfig tiered;
    tiered.workloadName = "kmeans";
    tiered.llcName = "split-doppelganger";
    tiered.memTier = defaultMemTier();
    tiered.sliceCount = 4;
    tiered.sliceHash = "sandybridge";
    tiered.mapSpaceMode = MapSpaceMode::PerSlice;
    tiered.fault.seed = 7;
    tiered.fault.dataRate = 1e-4;
    tiered.qor.budget = 0.002;
    tiered.qor.migrateFactor = 1.5;
    EXPECT_EQ(configFingerprint(tiered),
              "kmeans/split-doppelganger@125e53485254e645");

    RunConfig scaled;
    scaled.workloadName = "jpeg";
    scaled.llcName = "approxDedup";
    scaled.workload.scale = 0.25;
    scaled.workload.seed = 12345;
    EXPECT_EQ(configFingerprint(scaled),
              "jpeg/approxDedup@cf7a771a4839693e");

    // The campaign codec's line is pinned byte for byte as well.
    EXPECT_EQ(
        campaignConfigJson(defaults),
        R"({"v":1,"fp":"kmeans/baseline@570409a549717d2e",)"
        R"("workload":"kmeans","organization":"baseline","mapBits":14,)"
        R"("dataFraction":0.25,"hashMode":0,"hashDataSetIndex":1,)"
        R"("dataPolicy":0,"tagCountAwareData":0,"scale":1,"seed":12345,)"
        R"("perUseRanges":0,"baselineBytes":2097152,"llcWays":16,)"
        R"("llcLatency":6,"fault":{"seed":25482469399,"memoryRate":0,)"
        R"("dataRate":0,"tagMetaRate":0,"mtagMetaRate":0},)"
        R"("qor":{"budget":0,"reenableFraction":0.5,"window":512,)"
        R"("minDwell":128,"migrateFactor":0,"migrateDwell":256},)"
        R"("memTier":[],)"
        R"("slice":{"count":0,"hash":"bitselect","mapSpace":"shared"}})"
        "\n");
}

// ---------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------

TEST(Journal, RecordRoundTripsBitExactly)
{
    // A faulted + guardrailed split run registers every stat group.
    RunConfig cfg = tinyConfig("blackscholes", "split-doppelganger");
    cfg.fault.dataRate = 0.01;
    cfg.fault.tagMetaRate = 0.01;
    cfg.qor.budget = 0.001;
    cfg.qor.window = 16;
    cfg.qor.minDwell = 8;
    const RunResult live = runWorkload(cfg);
    const std::string fp = configFingerprint(cfg);

    const std::string line = journalRecordJson(fp, live);
    std::string fpBack;
    RunResult back;
    std::string why;
    ASSERT_TRUE(parseJournalRecord(line, fpBack, back, why)) << why;

    EXPECT_EQ(fpBack, fp);
    EXPECT_FALSE(back.failed);
    EXPECT_EQ(back.workload, live.workload);
    EXPECT_EQ(back.organization, live.organization);

    // The snapshot, the run's only stat record, survives exactly — so
    // the CSV row (built purely from it) is byte-identical.
    EXPECT_EQ(back.stats, live.stats);
    EXPECT_EQ(runResultCsvRow(back), runResultCsvRow(live));

    EXPECT_EQ(back.output, live.output);
    EXPECT_EQ(back.doppConfig.tagEntries, live.doppConfig.tagEntries);
    EXPECT_EQ(back.doppConfig.dataEntries,
              live.doppConfig.dataEntries);
    EXPECT_EQ(back.doppConfig.mapBits, live.doppConfig.mapBits);
    EXPECT_EQ(back.doppConfig.unified, live.doppConfig.unified);
}

TEST(Journal, ParentJournalStillResumes)
{
    // DOPP_V1_JOURNAL was written by runBatchResumable (jobs=1) of the
    // release whose RunResult still carried typed copies of the
    // counters. Its records hold only the snapshot, so every config
    // must resume from them, equal to a fresh run.
    std::vector<RunConfig> configs = {
        tinyConfig("kmeans", "baseline"),
        tinyConfig("blackscholes", "split-doppelganger"),
        tinyConfig("jpeg", "uniDoppelganger"),
    };
    configs[1].fault.dataRate = 0.01;
    configs[1].fault.tagMetaRate = 0.01;
    configs[1].qor.budget = 0.001;
    configs[1].qor.window = 16;
    configs[1].qor.minDwell = 8;
    configs[2].sliceCount = 4;

    // Resuming appends nothing, but work on a copy all the same.
    TempPath journal;
    {
        std::ofstream out(journal.path, std::ios::binary);
        out << readFile(DOPP_V1_JOURNAL);
    }
    BatchOptions opt;
    opt.jobs = 1;
    const BatchOutcome outcome =
        runBatchResumable(configs, journal.path, opt);
    EXPECT_EQ(outcome.runsResumed, 3u);
    EXPECT_EQ(outcome.runsExecuted, 0u);
    ASSERT_EQ(outcome.results.size(), configs.size());

    for (size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(configs[i].workloadName + "/" + configs[i].llcName);
        const RunResult fresh = runWorkload(configs[i]);
        const RunResult &resumed = outcome.results[i];
        EXPECT_FALSE(resumed.failed);
        EXPECT_EQ(resumed.stats, fresh.stats);
        EXPECT_EQ(resumed.output, fresh.output);
        EXPECT_EQ(runResultCsvRow(resumed), runResultCsvRow(fresh));
    }
}

TEST(Journal, MissingFileLoadsEmpty)
{
    const LoadedJournal j =
        loadJournal("/tmp/dopp-definitely-not-a-journal.jsonl");
    EXPECT_TRUE(j.records.empty());
    EXPECT_EQ(j.recordsLoaded, 0u);
    EXPECT_EQ(j.recordsDiscarded, 0u);
    EXPECT_EQ(j.bytes, 0u);
}

TEST(Journal, TruncatedLastLineIsDiscarded)
{
    const RunConfig cfg = tinyConfig("kmeans", "baseline");
    const RunResult r = runWorkload(cfg);
    const std::string a =
        journalRecordJson(configFingerprint(cfg), r);

    RunConfig cfg2 = cfg;
    cfg2.workload.seed = 777;
    const std::string b =
        journalRecordJson(configFingerprint(cfg2), runWorkload(cfg2));

    TempPath tmp;
    {
        std::ofstream out(tmp.path, std::ios::binary);
        out << a;
        out << b.substr(0, b.size() / 2); // crash mid-write
    }
    const LoadedJournal j = loadJournal(tmp.path);
    EXPECT_EQ(j.recordsLoaded, 1u);
    EXPECT_EQ(j.recordsDiscarded, 1u);
    ASSERT_EQ(j.records.size(), 1u);
    EXPECT_EQ(j.records.count(configFingerprint(cfg)), 1u);
}

TEST(Journal, DeeplyNestedLineIsDiscarded)
{
    const RunConfig cfg = tinyConfig("kmeans", "baseline");
    const std::string fp = configFingerprint(cfg);
    const std::string good = journalRecordJson(fp, runWorkload(cfg));

    // Far past the parser's depth cap: discarded, not a stack overflow.
    TempPath tmp;
    {
        std::ofstream out(tmp.path, std::ios::binary);
        out << good << std::string(100000, '[') << '\n'
            << std::string(100000, '{') << '\n' << good;
    }
    const LoadedJournal j = loadJournal(tmp.path);
    EXPECT_EQ(j.recordsLoaded, 2u);
    EXPECT_EQ(j.recordsDiscarded, 2u);
    EXPECT_EQ(j.records.count(fp), 1u);
}

TEST(Journal, UnknownSchemaIsDiscarded)
{
    const RunConfig cfg = tinyConfig("kmeans", "baseline");
    const std::string fp = configFingerprint(cfg);
    const std::string good = journalRecordJson(fp, runWorkload(cfg));

    // An unknown top-level column: a future schema we must not guess
    // our way through.
    std::string extraColumn = good;
    extraColumn.insert(extraColumn.find(",\"fp\""),
                       ",\"futureField\":42");
    // An unknown schema version.
    std::string badVersion = good;
    badVersion.replace(badVersion.find("{\"v\":1"), 6, "{\"v\":9");

    TempPath tmp;
    {
        std::ofstream out(tmp.path, std::ios::binary);
        out << extraColumn << badVersion << good;
    }
    const LoadedJournal j = loadJournal(tmp.path);
    EXPECT_EQ(j.recordsLoaded, 1u);
    EXPECT_EQ(j.recordsDiscarded, 2u);
    EXPECT_EQ(j.records.count(fp), 1u);
}

TEST(Journal, DoppBlockIsStrict)
{
    const RunConfig cfg = tinyConfig("kmeans", "split-doppelganger");
    const std::string fp = configFingerprint(cfg);
    RunResult r = runWorkload(cfg);
    // Every journaled DoppConfig field off its default survives a
    // round trip byte for byte.
    DoppConfig &d = r.doppConfig;
    d.tagEntries = 1000;
    d.tagWays = 5;
    d.dataEntries = 300;
    d.dataWays = 3;
    d.mapBits = 9;
    d.hashMode = MapHashMode::RangeOnly;
    d.hitLatency = 11;
    d.unified = true;
    d.hashDataSetIndex = false;
    d.dataPolicy = ReplPolicy::RANDOM;
    d.tagCountAwareData = true;
    const std::string good = journalRecordJson(fp, r);
    std::string fpBack, why;
    RunResult back;
    ASSERT_TRUE(parseJournalRecord(good, fpBack, back, why)) << why;
    EXPECT_EQ(journalRecordJson(fpBack, back), good);

    // A missing, mistyped or out-of-range dopp field discards the
    // record instead of reading as a default.
    auto edited = [&good](const std::string &from, const std::string &to) {
        std::string line = good;
        const size_t at = line.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return at == std::string::npos ? line
                                        : line.replace(at, from.size(), to);
    };
    for (const std::string &line :
         {edited("\"tagWays\":5,", ""),
          edited("\"mapBits\":9", "\"mapBits\":\"9\""),
          edited("\"unified\":1", "\"unified\":2"),
          edited("\"hashMode\":2", "\"hashMode\":9"),
          edited("\"tagEntries\":1000", "\"tagEntries\":4294967296")}) {
        EXPECT_FALSE(parseJournalRecord(line, fpBack, back, why)) << line;
        EXPECT_NE(why.find("dopp field"), std::string::npos) << why;
    }
}

TEST(Journal, DuplicateFingerprintKeepsLastRecord)
{
    const RunConfig cfg = tinyConfig("kmeans", "baseline");
    const std::string fp = configFingerprint(cfg);
    RunResult r = runWorkload(cfg);
    const std::string first = journalRecordJson(fp, r);
    r.output.push_back(123.5); // distinguishable later record
    const std::string second = journalRecordJson(fp, r);

    TempPath tmp;
    {
        std::ofstream out(tmp.path, std::ios::binary);
        out << first << second;
    }
    const LoadedJournal j = loadJournal(tmp.path);
    EXPECT_EQ(j.recordsLoaded, 2u);
    EXPECT_EQ(j.recordsDiscarded, 0u);
    ASSERT_EQ(j.records.size(), 1u);
    EXPECT_EQ(j.records.at(fp).output.back(), 123.5);
}

// ---------------------------------------------------------------------
// Checkpoint/resume
// ---------------------------------------------------------------------

TEST(Resilience, SecondCampaignResumesEverything)
{
    const std::vector<RunConfig> configs = {
        tinyConfig("kmeans", "baseline"),
        tinyConfig("jpeg", "uniDoppelganger"),
    };
    TempPath journal;

    BatchOptions opt;
    opt.jobs = 1;
    const BatchOutcome first =
        runBatchResumable(configs, journal.path, opt);
    EXPECT_EQ(first.runsExecuted, 2u);
    EXPECT_EQ(first.runsResumed, 0u);
    EXPECT_EQ(first.runsFailed, 0u);

    size_t resumedSeen = 0;
    BatchOptions opt2;
    opt2.jobs = 1;
    opt2.onProgress = [&](const BatchProgress &p) {
        EXPECT_TRUE(p.resumed);
        EXPECT_FALSE(p.result.failed);
        ++resumedSeen;
    };
    const BatchOutcome second =
        runBatchResumable(configs, journal.path, opt2);
    EXPECT_EQ(second.runsExecuted, 0u);
    EXPECT_EQ(second.runsResumed, 2u);
    EXPECT_EQ(resumedSeen, 2u);
    for (size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(runResultCsvRow(first.results[i]),
                  runResultCsvRow(second.results[i]));
        EXPECT_EQ(first.results[i].output, second.results[i].output);
    }
}

TEST(Resilience, ResumeEquivalenceAtEveryCutPoint)
{
    // The acceptance bar: a 200-config campaign killed after
    // N ∈ {0, 1, half, all} completed runs and resumed at jobs=4
    // must produce a final CSV byte-identical to an uninterrupted
    // jobs=1 execution.
    const std::vector<RunConfig> configs = campaign200();

    BatchOptions serial;
    serial.jobs = 1;
    const std::vector<RunResult> reference =
        runBatch(configs, serial);
    TempPath referenceCsv;
    writeResultsCsv(referenceCsv.path, reference);
    const std::string referenceBytes = readFile(referenceCsv.path);

    for (size_t cut : {size_t{0}, size_t{1}, size_t{100},
                       size_t{200}}) {
        SCOPED_TRACE("cut after " + std::to_string(cut) + " runs");
        TempPath journal;

        // Phase 1: the campaign dies after `cut` completed runs —
        // the cancel flag stands in for the kill, since both leave
        // the same on-disk state: a journal holding exactly the
        // completed runs.
        std::atomic<bool> cancel{cut == 0};
        BatchOptions interrupted;
        interrupted.jobs = 1;
        interrupted.cancel = &cancel;
        interrupted.onProgress = [&](const BatchProgress &p) {
            if (!p.result.failed && p.completed >= cut)
                cancel.store(true, std::memory_order_release);
        };
        const BatchOutcome partial =
            runBatchResumable(configs, journal.path, interrupted);
        if (cut < configs.size()) {
            EXPECT_TRUE(partial.interrupted);
        }
        EXPECT_EQ(partial.runsExecuted,
                  std::min(cut, configs.size()));

        // Phase 2: resume with a wider pool.
        BatchOptions resumed;
        resumed.jobs = 4;
        const BatchOutcome full =
            runBatchResumable(configs, journal.path, resumed);
        EXPECT_EQ(full.runsResumed, cut);
        EXPECT_EQ(full.runsExecuted, configs.size() - cut);
        EXPECT_EQ(full.runsFailed, 0u);
        EXPECT_FALSE(full.interrupted);

        TempPath resumedCsv;
        writeResultsCsv(resumedCsv.path, full.results);
        EXPECT_EQ(readFile(resumedCsv.path), referenceBytes);
    }
}

TEST(Resilience, DuplicateConfigsShareOneJournalRecord)
{
    const std::vector<RunConfig> configs(
        4, tinyConfig("kmeans", "baseline"));
    TempPath journal;
    BatchOptions opt;
    opt.jobs = 2;
    const BatchOutcome first =
        runBatchResumable(configs, journal.path, opt);
    EXPECT_EQ(first.runsExecuted, 4u);

    // All four runs share a fingerprint, so the journal holds one
    // record — and by the determinism contract it stands in for any
    // of them.
    const LoadedJournal j = loadJournal(journal.path);
    EXPECT_EQ(j.recordsLoaded, 1u);

    const BatchOutcome second =
        runBatchResumable(configs, journal.path, opt);
    EXPECT_EQ(second.runsResumed, 4u);
    EXPECT_EQ(second.runsExecuted, 0u);
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(runResultCsvRow(second.results[i]),
                  runResultCsvRow(first.results[i]));
    }
}

TEST(Resilience, CorruptedJournalRecordsReRun)
{
    const std::vector<RunConfig> configs = {
        tinyConfig("kmeans", "baseline"),
        tinyConfig("jpeg", "uniDoppelganger"),
        tinyConfig("blackscholes", "split-doppelganger"),
    };
    TempPath journal;
    BatchOptions opt;
    opt.jobs = 1;
    const BatchOutcome clean =
        runBatchResumable(configs, journal.path, opt);
    EXPECT_EQ(clean.runsExecuted, 3u);

    // Truncate the final record mid-line: the crash-window case.
    std::string contents = readFile(journal.path);
    const size_t lastLine =
        contents.rfind('\n', contents.size() - 2) + 1;
    contents.resize(lastLine + (contents.size() - lastLine) / 2);
    {
        std::ofstream out(journal.path,
                          std::ios::binary | std::ios::trunc);
        out << contents;
    }

    const BatchOutcome recovered =
        runBatchResumable(configs, journal.path, opt);
    EXPECT_EQ(recovered.runsResumed, 2u);
    EXPECT_EQ(recovered.runsExecuted, 1u); // the corrupted one
    EXPECT_EQ(recovered.runsFailed, 0u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(runResultCsvRow(recovered.results[i]),
                  runResultCsvRow(clean.results[i]));
    }
}

TEST(Resilience, SnapshotConfigsResumeTraceConfigsReExecute)
{
    // The figure benches' snapshot analyses are run stats, so their
    // configs resume from the journal with every snapshot.* value.
    // A trace capture is a side effect a journal cannot replay: that
    // config re-executes on every campaign, yet its record is still
    // written, so the same config without the trace resumes from it.
    RunConfig snap = tinyConfig("kmeans", "split-doppelganger");
    snap.snapshotPeriod = 1000;
    snap.snapshotAnalyses = {"approxFraction", "map14", "gdish"};

    TempPath journal;
    BatchOptions opt;
    opt.jobs = 1;
    const BatchOutcome first =
        runBatchResumable({snap}, journal.path, opt);
    EXPECT_EQ(first.runsExecuted, 1u);
    const StatSnapshot &stats = first.results[0].stats;
    EXPECT_GT(stats.counter("snapshot.map14.count"), 1u);

    const BatchOutcome second =
        runBatchResumable({snap}, journal.path, opt);
    EXPECT_EQ(second.runsResumed, 1u);
    EXPECT_EQ(second.runsExecuted, 0u);
    EXPECT_EQ(second.results[0].stats, stats);

    TempPath trace;
    RunConfig traced = tinyConfig("kmeans", "split-doppelganger");
    traced.tracePath = trace.path;
    const BatchOutcome recorded =
        runBatchResumable({traced}, journal.path, opt);
    EXPECT_EQ(recorded.runsExecuted, 1u);
    const BatchOutcome again =
        runBatchResumable({traced}, journal.path, opt);
    EXPECT_EQ(again.runsResumed, 0u);
    EXPECT_EQ(again.runsExecuted, 1u);

    RunConfig bare = tinyConfig("kmeans", "split-doppelganger");
    const BatchOutcome third =
        runBatchResumable({bare}, journal.path, opt);
    EXPECT_EQ(third.runsResumed, 1u);
    EXPECT_EQ(third.runsExecuted, 0u);
    EXPECT_EQ(runResultCsvRow(third.results[0]),
              runResultCsvRow(recorded.results[0]));
}

TEST(Resilience, CancelledRunsAreReportedAndNotJournaled)
{
    const std::vector<RunConfig> configs(
        3, tinyConfig("kmeans", "baseline"));
    std::atomic<bool> cancel{true};
    TempPath journal;

    size_t reported = 0;
    BatchOptions opt;
    opt.jobs = 1;
    opt.cancel = &cancel;
    opt.onProgress = [&](const BatchProgress &p) {
        EXPECT_TRUE(p.result.failed);
        EXPECT_EQ(p.result.error, "cancelled");
        EXPECT_FALSE(p.resumed);
        ++reported;
    };
    const BatchOutcome out =
        runBatchResumable(configs, journal.path, opt);
    EXPECT_EQ(reported, 3u); // cancelled runs still report progress
    EXPECT_EQ(out.runsFailed, 3u);
    EXPECT_TRUE(out.interrupted);
    EXPECT_EQ(loadJournal(journal.path).recordsLoaded, 0u);
}

// ---------------------------------------------------------------------
// Watchdog and retry
// ---------------------------------------------------------------------

TEST(Resilience, WatchdogTimesOutWedgedRunWithoutKillingPool)
{
    // The wedged run sleeps 600 ms of wall time in its LLC builder,
    // so it always overruns the 500 ms deadline regardless of how
    // fast (or how loaded) the host is; the abort lands at the first
    // cooperative poll of the run.  The pool-mate is a ~10 ms run
    // with a 50x margin against the shared deadline, so it must
    // complete undisturbed even on a heavily loaded machine.
    registerTestOrganizations();
    std::vector<RunConfig> configs;
    configs.push_back(tinyConfig("kmeans", "test-wedged", 0.05));
    configs.push_back(tinyConfig("kmeans", "baseline", 0.01));

    StatRegistry reg;
    BatchOptions opt;
    opt.jobs = 2;
    opt.runTimeoutMs = 500;
    opt.stats = &reg;
    const std::vector<RunResult> results = runBatch(configs, opt);

    ASSERT_TRUE(results[0].failed);
    EXPECT_EQ(results[0].error, "timeout");
    EXPECT_EQ(results[0].workload, "kmeans");
    ASSERT_FALSE(results[1].failed) << results[1].error;
    EXPECT_GT(results[1].stats.counter("run.runtimeCycles"), 0u);

    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("batch.runsTimedOut"), 1u);
    EXPECT_EQ(snap.counter("batch.runsExecuted"), 2u);
    EXPECT_EQ(snap.counter("batch.runsFailed"), 1u);
    EXPECT_EQ(snap.counter("batch.runsRetried"), 0u);
}

TEST(Resilience, TimeoutRetriesWithBackoffThenFails)
{
    std::vector<RunConfig> configs;
    configs.push_back(tinyConfig("kmeans", "baseline", 0.5));

    StatRegistry reg;
    BatchOptions opt;
    opt.jobs = 1;
    opt.runTimeoutMs = 1;
    opt.maxRetries = 2;
    opt.retryBackoffMs = 1;
    opt.stats = &reg;
    const std::vector<RunResult> results = runBatch(configs, opt);

    ASSERT_TRUE(results[0].failed);
    EXPECT_EQ(results[0].error, "timeout");
    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("batch.runsExecuted"), 3u); // 1 + 2 retries
    EXPECT_EQ(snap.counter("batch.runsRetried"), 2u);
    EXPECT_EQ(snap.counter("batch.runsTimedOut"), 3u);
}

TEST(Resilience, TransientFailureRetriesToSuccess)
{
    // A builder that throws exactly once models a transient failure;
    // the retry re-executes from the identical config and succeeds.
    registerTestOrganizations();
    throwsOnceFired = false;
    const RunConfig flaky = tinyConfig("kmeans", "test-throws-once");

    StatRegistry reg;
    BatchOptions opt;
    opt.jobs = 1;
    opt.maxRetries = 1;
    opt.retryBackoffMs = 1;
    opt.stats = &reg;
    const std::vector<RunResult> results = runBatch({flaky}, opt);

    ASSERT_FALSE(results[0].failed) << results[0].error;
    EXPECT_GT(results[0].stats.counter("run.runtimeCycles"), 0u);
    const StatSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("batch.runsRetried"), 1u);
    EXPECT_EQ(snap.counter("batch.runsExecuted"), 2u);
    EXPECT_EQ(snap.counter("batch.runsFailed"), 0u);
}

TEST(Resilience, CancelledAndUnnamedConfigsNeverRetry)
{
    std::vector<RunConfig> configs;
    configs.push_back(RunConfig{}); // no workloadName

    StatRegistry reg;
    BatchOptions opt;
    opt.jobs = 1;
    opt.maxRetries = 5;
    opt.retryBackoffMs = 1;
    opt.stats = &reg;
    const std::vector<RunResult> results = runBatch(configs, opt);
    EXPECT_TRUE(results[0].failed);
    EXPECT_EQ(reg.snapshot().counter("batch.runsRetried"), 0u);
}

TEST(Resilience, MemTierCampaignResumesBitIdentically)
{
    // Memory-tier runs (per-partition faults + cross-tier guardrail)
    // must journal and resume exactly like any other config: a
    // jobs=2 resume of a partially-journaled campaign reproduces the
    // uninterrupted jobs=1 CSV byte for byte.
    std::vector<RunConfig> configs;
    for (u64 i = 0; i < 6; ++i) {
        RunConfig cfg = tinyConfig(
            i % 2 ? "blackscholes" : "kmeans",
            i % 2 ? "split-doppelganger" : "baseline", 0.02);
        cfg.workload.seed = 7000 + i;
        cfg.memTier = defaultMemTier(1e-3, 1e-3);
        cfg.qor.budget = 0.01;
        cfg.qor.migrateFactor = 1.5;
        cfg.qor.migrateDwell = 32;
        configs.push_back(std::move(cfg));
    }

    BatchOptions serial;
    serial.jobs = 1;
    const std::vector<RunResult> reference =
        runBatch(configs, serial);
    TempPath referenceCsv;
    writeResultsCsv(referenceCsv.path, reference);
    const std::string referenceBytes = readFile(referenceCsv.path);

    TempPath journal;
    std::atomic<bool> cancel{false};
    BatchOptions interrupted;
    interrupted.jobs = 1;
    interrupted.cancel = &cancel;
    interrupted.onProgress = [&](const BatchProgress &p) {
        if (!p.result.failed && p.completed >= 3)
            cancel.store(true, std::memory_order_release);
    };
    const BatchOutcome partial =
        runBatchResumable(configs, journal.path, interrupted);
    EXPECT_EQ(partial.runsExecuted, 3u);

    BatchOptions resumed;
    resumed.jobs = 2;
    const BatchOutcome full =
        runBatchResumable(configs, journal.path, resumed);
    EXPECT_EQ(full.runsResumed, 3u);
    EXPECT_EQ(full.runsExecuted, 3u);
    EXPECT_EQ(full.runsFailed, 0u);

    TempPath resumedCsv;
    writeResultsCsv(resumedCsv.path, full.results);
    EXPECT_EQ(readFile(resumedCsv.path), referenceBytes);
}

TEST(Resilience, SlicedCampaignResumesBitIdentically)
{
    // A campaign sweeping slice configurations (the bench_fig_slices
    // shape) must resume across a kill exactly like any other: each
    // slice layout keys its own journal record, and the resumed CSV
    // reproduces the uninterrupted one byte for byte.
    std::vector<RunConfig> configs;
    for (u64 i = 0; i < 6; ++i) {
        RunConfig cfg = tinyConfig(
            i % 2 ? "blackscholes" : "kmeans",
            i % 2 ? "split-doppelganger" : "baseline", 0.02);
        cfg.workload.seed = 8000 + i;
        cfg.sliceCount = 1u << (i % 3);       // 1, 2, 4
        cfg.sliceHash = i % 2 ? "sandybridge" : "bitselect";
        if (i == 5)
            cfg.mapSpaceMode = MapSpaceMode::PerSlice;
        configs.push_back(std::move(cfg));
    }

    BatchOptions serial;
    serial.jobs = 1;
    const std::vector<RunResult> reference =
        runBatch(configs, serial);
    TempPath referenceCsv;
    writeResultsCsv(referenceCsv.path, reference);
    const std::string referenceBytes = readFile(referenceCsv.path);

    TempPath journal;
    std::atomic<bool> cancel{false};
    BatchOptions interrupted;
    interrupted.jobs = 1;
    interrupted.cancel = &cancel;
    interrupted.onProgress = [&](const BatchProgress &p) {
        if (!p.result.failed && p.completed >= 3)
            cancel.store(true, std::memory_order_release);
    };
    const BatchOutcome partial =
        runBatchResumable(configs, journal.path, interrupted);
    EXPECT_EQ(partial.runsExecuted, 3u);

    BatchOptions resumed;
    resumed.jobs = 2;
    const BatchOutcome full =
        runBatchResumable(configs, journal.path, resumed);
    EXPECT_EQ(full.runsResumed, 3u);
    EXPECT_EQ(full.runsExecuted, 3u);
    EXPECT_EQ(full.runsFailed, 0u);

    TempPath resumedCsv;
    writeResultsCsv(resumedCsv.path, full.results);
    EXPECT_EQ(readFile(resumedCsv.path), referenceBytes);
}

TEST(Resilience, JournalBytesCounterTracksAppends)
{
    const std::vector<RunConfig> configs = {
        tinyConfig("kmeans", "baseline"),
        tinyConfig("jpeg", "uniDoppelganger"),
    };
    TempPath journal;
    StatRegistry reg;
    BatchOptions opt;
    opt.jobs = 1;
    opt.stats = &reg;
    runBatchResumable(configs, journal.path, opt);

    const u64 counted = reg.snapshot().counter("batch.journalBytes");
    EXPECT_GT(counted, 0u);
    EXPECT_EQ(counted, fileSizeBytes(journal.path));
}

// ---------------------------------------------------------------------
// Shutdown
// ---------------------------------------------------------------------

TEST(ResilienceDeathTest, EmptyJournalPathIsFatal)
{
    EXPECT_EXIT(
        runBatchResumable({tinyConfig("kmeans", "baseline")},
                          "", {}),
        ::testing::ExitedWithCode(1), "empty journal path");
}

TEST(ResilienceDeathTest, SignalHandlerFlipsFlagThenEscalates)
{
    // In the child: the first SIGTERM is caught (flag set, drain
    // begins), the second escalates to immediate shutdown — exactly
    // the graceful-then-forceful contract.
    EXPECT_EXIT(
        {
            const std::atomic<bool> *flag =
                installBatchSignalHandler();
            std::raise(SIGTERM);
            if (!flag->load())
                _exit(3); // handler did not run
            std::raise(SIGTERM);
            _exit(4); // second signal should have killed us
        },
        ::testing::KilledBySignal(SIGTERM), "");
}

TEST(ResilienceDeathTest, SecondSignalEscalatesAcrossSignals)
{
    // The escalation must be cross-signal: a SIGTERM chasing a ^C
    // (SIGINT) during the graceful drain kills immediately rather
    // than being swallowed into the already-set cancel flag.
    EXPECT_EXIT(
        {
            const std::atomic<bool> *flag =
                installBatchSignalHandler();
            std::raise(SIGINT);
            if (!flag->load())
                _exit(3); // handler did not run
            std::raise(SIGTERM);
            _exit(4); // cross-signal escalation failed
        },
        ::testing::KilledBySignal(SIGTERM), "");
}

} // namespace dopp

