/**
 * @file
 * Campaign service tests (DESIGN.md §16): the spool config codec and
 * its fingerprint cross-check, flock-exclusive multi-process journal
 * appends, the claim/lease protocol (acquire, renew, expiry reclaim,
 * exactly-once finalize), the incremental journal tail, and worker
 * end-to-end flows — failed configs, stop, and the headline
 * crash-tolerance bar: a worker SIGKILLed mid-sweep is reclaimed and
 * the finished batch's results CSV is byte-identical to a clean
 * serial run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/campaign_service.hh"
#include "harness/journal.hh"
#include "harness/llc_factory.hh"
#include "harness/results_io.hh"
#include "util/fileio.hh"

#include "test_support.hh"

namespace dopp
{

namespace
{

/** A fresh temp *directory* deleted recursively on destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char buf[] = "/tmp/doppspool-XXXXXX";
        EXPECT_NE(mkdtemp(buf), nullptr);
        path = buf;
    }

    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path + "'";
        const int rc = std::system(cmd.c_str());
        (void)rc;
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A small all-distinct campaign over real workloads. */
std::vector<RunConfig>
smallCampaign(size_t n, double scale = 0.01)
{
    const RunConfig variants[] = {
        tinyConfig("kmeans", "baseline", scale),
        tinyConfig("kmeans", "split-doppelganger", scale),
        tinyConfig("blackscholes", "uniDoppelganger", scale),
    };
    std::vector<RunConfig> configs;
    configs.reserve(n);
    for (u64 i = 0; i < n; ++i) {
        RunConfig cfg = variants[i % 3];
        cfg.workload.seed = 5000 + i;
        configs.push_back(cfg);
    }
    return configs;
}

/** Write @p configs as a batch file at @p path. */
void
writeBatchFile(const std::string &path,
               const std::vector<RunConfig> &configs)
{
    std::string text;
    for (const RunConfig &cfg : configs)
        text += campaignConfigJson(cfg);
    atomicWriteFile(path, text);
}

CampaignServiceOptions
testWorkerOptions(const std::string &root)
{
    CampaignServiceOptions opts;
    opts.spoolRoot = root;
    opts.leaseMs = 400;
    opts.heartbeatMs = 100;
    opts.scanMs = 50;
    opts.exitWhenIdle = true;
    opts.maxRuntimeMs = 120000; // safety net, not a tuning knob
    return opts;
}

/** Every journal record, in file order. */
std::vector<std::pair<std::string, RunResult>>
journalRecords(const SpoolPaths &paths)
{
    std::vector<std::pair<std::string, RunResult>> out;
    std::ifstream in(paths.journalPath());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string fp, why;
        RunResult r;
        EXPECT_TRUE(parseJournalRecord(line, fp, r, why)) << why;
        out.emplace_back(fp, r);
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Config codec
// ---------------------------------------------------------------------

TEST(CampaignCodec, RoundTripPreservesFingerprint)
{
    RunConfig cfg = tinyConfig("kmeans", "split-doppelganger", 0.07);
    cfg.mapBits = 12;
    cfg.dataFraction = 0.5;
    cfg.hashMode = MapHashMode::AvgOnly;
    cfg.hashDataSetIndex = false;
    cfg.dataPolicy = ReplPolicy::FIFO;
    cfg.tagCountAwareData = true;
    cfg.workload.seed = 987654321;
    cfg.workload.perUseRanges = true;
    cfg.llcWays = 8;
    cfg.llcLatency = 9;
    cfg.fault.seed = 42;
    cfg.fault.memoryRate = 1e-7;
    cfg.fault.dataRate = 3.25e-9;
    cfg.qor.budget = 0.05;
    cfg.qor.migrateFactor = 1.5;
    MemPartitionProfile p;
    p.kind = MemPartitionKind::Nvm;
    p.name = "nvm0";
    p.bitErrorRate = 2e-8;
    p.readLatency = 300;
    p.writeLatency = 900;
    p.writeBufferDepth = 8;
    p.bufferedWriteLatency = 12;
    cfg.memTier.partitions.push_back(p);
    cfg.sliceCount = 4;
    cfg.sliceHash = "sandybridge";
    cfg.mapSpaceMode = MapSpaceMode::PerSlice;
    cfg.snapshotPeriod = 5000;
    cfg.snapshotAnalyses = {"map14", "threshold1e-4", "approxFraction"};

    const std::string line = campaignConfigJson(cfg);
    RunConfig parsed;
    std::string fp, why;
    ASSERT_TRUE(parseCampaignConfig(line, parsed, fp, why)) << why;
    EXPECT_EQ(fp, configFingerprint(cfg));
    EXPECT_EQ(configFingerprint(parsed), configFingerprint(cfg));
    EXPECT_EQ(parsed.workloadName, "kmeans");
    EXPECT_EQ(parsed.llcName, "split-doppelganger");
    EXPECT_EQ(parsed.mapBits, 12u);
    EXPECT_EQ(parsed.dataPolicy, ReplPolicy::FIFO);
    EXPECT_EQ(parsed.workload.seed, 987654321u);
    ASSERT_EQ(parsed.memTier.partitions.size(), 1u);
    EXPECT_EQ(parsed.memTier.partitions[0].name, "nvm0");
    EXPECT_EQ(parsed.memTier.partitions[0].writeLatency, 900u);
    EXPECT_EQ(parsed.sliceCount, 4u);
    EXPECT_EQ(parsed.mapSpaceMode, MapSpaceMode::PerSlice);
    EXPECT_EQ(parsed.snapshotPeriod, 5000u);
    EXPECT_EQ(parsed.snapshotAnalyses, cfg.snapshotAnalyses);

    // And re-serialization is byte-stable (the codec is canonical).
    EXPECT_EQ(campaignConfigJson(parsed), line);
}

TEST(CampaignCodec, RejectsMalformedLines)
{
    RunConfig parsed;
    std::string fp, why;

    EXPECT_FALSE(parseCampaignConfig("not json", parsed, fp, why));
    EXPECT_FALSE(parseCampaignConfig("{}", parsed, fp, why));

    const std::string good =
        campaignConfigJson(tinyConfig("kmeans", "baseline"));

    // Unknown schema column.
    std::string unknownKey = good;
    unknownKey.insert(unknownKey.find("\"workload\""),
                      "\"surprise\":1,");
    EXPECT_FALSE(
        parseCampaignConfig(unknownKey, parsed, fp, why));
    EXPECT_NE(why.find("surprise"), std::string::npos);

    // Unknown workload name: must be rejected at parse time, never
    // handed to runWorkload (which would fatal and crash-loop a
    // worker).
    std::string badWorkload = good;
    const size_t pos = badWorkload.find("kmeans");
    ASSERT_NE(pos, std::string::npos);
    badWorkload.replace(pos, 6, "kmean0");
    EXPECT_FALSE(
        parseCampaignConfig(badWorkload, parsed, fp, why));

    // Tampered field: the stored fingerprint no longer matches the
    // recomputed one.
    std::string tampered = good;
    const size_t seedPos = tampered.find("\"seed\":");
    ASSERT_NE(seedPos, std::string::npos);
    tampered.insert(seedPos + 7, "9");
    EXPECT_FALSE(parseCampaignConfig(tampered, parsed, fp, why));
    EXPECT_NE(why.find("fingerprint mismatch"), std::string::npos);

    // Invalid slice layouts: rejected with a reason, never fatal
    // (resolvedSliceConfig would otherwise kill the worker).
    auto withSlice = [&good](const std::string &section,
                             const std::string &mapBits) {
        std::string line = good;
        const size_t s = line.find("\"slice\":{");
        line.replace(s, line.find('}', s) + 1 - s,
                     "\"slice\":{" + section + "}");
        const size_t m = line.find("\"mapBits\":") + 10;
        line.replace(m, line.find(',', m) - m, mapBits);
        return line;
    };
    const struct
    {
        std::string section, mapBits, reason;
    } badSlices[] = {
        {R"("count":6,"hash":"bitselect","mapSpace":"shared")", "14",
         "power of two"},
        {R"("count":16,"hash":"sandybridge","mapSpace":"shared")",
         "14", "at most"},
        {R"("count":4,"hash":"bitselect","mapSpace":"per-slice")", "2",
         "mapBits"},
    };
    for (const auto &bad : badSlices) {
        why.clear();
        EXPECT_FALSE(parseCampaignConfig(
            withSlice(bad.section, bad.mapBits), parsed, fp, why))
            << bad.section;
        EXPECT_NE(why.find(bad.reason), std::string::npos) << why;
    }

    // LLC geometries an organization's constructor would die on
    // (SIGFPE on zero ways, a fatal on zero sets, the map kernels'
    // width assert, an empty data array), and a value too wide for
    // its field: rejected with a reason too.
    const struct
    {
        std::string from, to, reason;
    } badGeometries[] = {
        {"\"llcWays\":16", "\"llcWays\":0", "llcWays"},
        {"\"baselineBytes\":2097152", "\"baselineBytes\":1000",
         "sets"},
        {"\"llcWays\":16", "\"llcWays\":4294967312", "llcWays"},
        {"\"mapBits\":14", "\"mapBits\":0", "mapBits"},
        {"\"mapBits\":14", "\"mapBits\":31", "mapBits"},
        {"\"dataFraction\":0.25", "\"dataFraction\":0", "dataFraction"},
        {"\"dataFraction\":0.25", "\"dataFraction\":0.0005",
         "dataFraction"},
        {"\"dataFraction\":0.25", "\"dataFraction\":-0.25",
         "dataFraction"},
    };
    for (const auto &bad : badGeometries) {
        std::string line = good;
        const size_t at = line.find(bad.from);
        ASSERT_NE(at, std::string::npos) << bad.from;
        line.replace(at, bad.from.size(), bad.to);
        why.clear();
        EXPECT_FALSE(parseCampaignConfig(line, parsed, fp, why))
            << bad.to;
        EXPECT_NE(why.find(bad.reason), std::string::npos) << why;
    }
}

TEST(CampaignCodec, LayoutErrorNamesMapBitsAndDataFraction)
{
    // Each of these used to pass: split-doppelganger then died on the
    // map kernels' width assert (exit 134) or on a data array with no
    // whole set.
    const SliceConfig unsliced;
    auto error = [&unsliced](unsigned map_bits, double fraction) {
        RunConfig cfg;
        cfg.mapBits = map_bits;
        cfg.dataFraction = fraction;
        return llcLayoutError(unsliced, cfg);
    };
    EXPECT_NE(error(0, 0.25).find("mapBits"), std::string::npos);
    EXPECT_NE(error(31, 0.25).find("mapBits"), std::string::npos);
    EXPECT_NE(error(14, 0.0).find("dataFraction"), std::string::npos);
    EXPECT_NE(error(14, std::nan("")).find("dataFraction"),
              std::string::npos);
    EXPECT_NE(error(14, HUGE_VAL).find("dataFraction"), std::string::npos);
    EXPECT_NE(error(14, 1e9).find("dataFraction"), std::string::npos);
    // 2 MB, 16 ways: the split half has 16384 tags, so one 16-way set
    // needs a fraction of 1/1024.
    EXPECT_NE(error(14, 0.9 / 1024).find("dataFraction"),
              std::string::npos);
    EXPECT_EQ(error(14, 1.0 / 1024), "");
    EXPECT_EQ(error(1, 0.25), "");
    EXPECT_EQ(error(30, 0.25), "");
    // perturb's doubled values stay legal.
    EXPECT_EQ(error(15, 0.25 * 2 + 1), "");

    // Four slices quarter the tags a data array is cut from.
    SliceConfig four;
    four.count = 4;
    RunConfig cfg;
    cfg.dataFraction = 1.0 / 1024;
    EXPECT_NE(llcLayoutError(four, cfg).find("dataFraction"),
              std::string::npos);
    cfg.dataFraction = 4.0 / 1024;
    EXPECT_EQ(llcLayoutError(four, cfg), "");
}

namespace
{

/** Move one visited field to another valid value: integers +1
 * (doubled instead where +1 breaks the LLC geometry), doubles x2+1,
 * bools flipped, enums to the next of their three values, strings
 * extended. */
template <typename T>
void
perturb(T &x, const RunConfig &cfg)
{
    if constexpr (std::is_same_v<T, bool>) {
        x = !x;
    } else if constexpr (std::is_enum_v<T>) {
        x = static_cast<T>((static_cast<u64>(x) + 1) % 3);
    } else if constexpr (std::is_floating_point_v<T>) {
        x = x * 2 + 1;
    } else if constexpr (std::is_same_v<T, std::string>) {
        x += "+";
    } else {
        const T before = x;
        x = before + 1;
        if (!llcLayoutError(SliceConfig{}, cfg).empty())
            x = before * 2;
    }
}

/** Every visited field of @p cfg as "key=text", in visit order. */
std::vector<std::string>
fieldTexts(const RunConfig &cfg)
{
    std::vector<std::string> out;
    auto add = [&out](const char *key, const auto &x) {
        out.push_back(std::string(key) + "=" + configFieldText(x));
    };
    visitConfigFields(cfg, [&add](const char *, const char *key,
                                  const auto &x) { add(key, x); });
    for (const MemPartitionProfile &p : cfg.memTier.partitions)
        visitPartitionFields(p, add);
    return out;
}

} // namespace

TEST(CampaignCodec, EveryVisitedFieldMovesFingerprintAndRoundTrips)
{
    unsetenv("DOPP_SLICES");
    unsetenv("DOPP_SLICE_HASH");
    RunConfig base = tinyConfig("kmeans", "split-doppelganger");
    base.memTier = defaultMemTier();
    const std::string baseFp = configFingerprint(base);

    // Perturb the i-th field @p visit yields on a copy of base: the
    // fingerprint must move, and a codec round trip must restore
    // every field exactly.
    auto check = [&](auto visit, size_t i) {
        RunConfig c = base;
        size_t j = 0;
        std::string key;
        visit(c, [&](const char *name, auto &x) {
            if (j++ == i) {
                key = name;
                perturb(x, c);
            }
        });
        SCOPED_TRACE(key);
        EXPECT_NE(fieldTexts(c), fieldTexts(base));
        EXPECT_NE(configFingerprint(c), baseFp);
        RunConfig parsed;
        std::string fp, why;
        ASSERT_TRUE(parseCampaignConfig(campaignConfigJson(c), parsed,
                                        fp, why))
            << why;
        EXPECT_EQ(fieldTexts(parsed), fieldTexts(c));
    };
    auto checkAll = [&](auto visit) {
        RunConfig c = base;
        size_t n = 0;
        visit(c, [&n](const char *, auto &) { ++n; });
        EXPECT_GT(n, 0u);
        for (size_t i = 0; i < n; ++i)
            check(visit, i);
    };

    checkAll([](RunConfig &c, auto &&v) {
        visitConfigFields(c, [&v](const char *, const char *key,
                                  auto &x) { v(key, x); });
    });
    for (size_t p = 0; p < base.memTier.partitions.size(); ++p) {
        checkAll([p](RunConfig &c, auto &&v) {
            visitPartitionFields(c.memTier.partitions[p], v);
        });
    }
}

TEST(CampaignCodec, RefusesUnspoolableConfigs)
{
    RunConfig cfg = tinyConfig("kmeans", "baseline");
    cfg.tracePath = "/tmp/never-written.dopptrc";
    EXPECT_EXIT(campaignConfigJson(cfg),
                ::testing::ExitedWithCode(1), "records a trace");
}

TEST(CampaignCodec, RejectsBadSnapshotAnalyses)
{
    RunConfig cfg = tinyConfig("kmeans", "baseline");
    cfg.snapshotPeriod = 5000;
    cfg.snapshotAnalyses = {"map14"};
    const std::string line = campaignConfigJson(cfg);
    auto rejects = [&line](const std::string &from, const std::string &to,
                           const std::string &reason) {
        std::string bad = line;
        bad.replace(bad.find(from), from.size(), to);
        RunConfig parsed;
        std::string fp, why;
        EXPECT_FALSE(parseCampaignConfig(bad, parsed, fp, why)) << bad;
        EXPECT_NE(why.find(reason), std::string::npos) << why;
    };
    rejects("\"map14\"", "\"map15\"", "unknown snapshot analysis 'map15'");
    rejects("\"map14\"", "\"map14\",\"map14\"", "listed twice");
    rejects("[\"map14\"]", "[]", "malformed snapshot section");
    rejects("[\"map14\"]", "[14]", "malformed snapshot section");
    rejects("\"period\"", "\"every\"", "unknown schema column 'every'");
}

TEST(CampaignCodec, BatchLoadIsAllOrNothing)
{
    TempDir dir;
    const std::string path = dir.path + "/batch.jsonl";
    std::string text =
        campaignConfigJson(tinyConfig("kmeans", "baseline"));
    text += "this line is garbage\n";
    atomicWriteFile(path, text);

    CampaignBatch batch;
    std::string why;
    EXPECT_FALSE(loadCampaignBatch(path, "b", batch, why));
    EXPECT_NE(why.find("line 2"), std::string::npos);
}

TEST(CampaignCodec, DeeplyNestedBatchLineIsRejected)
{
    TempDir dir;
    const std::string path = dir.path + "/batch.jsonl";
    std::string text =
        campaignConfigJson(tinyConfig("kmeans", "baseline"));
    text += std::string(100000, '[') + "\n";
    atomicWriteFile(path, text);

    CampaignBatch batch;
    std::string why;
    EXPECT_FALSE(loadCampaignBatch(path, "b", batch, why));
    EXPECT_NE(why.find("line 2"), std::string::npos) << why;
}

TEST(CampaignCodec, SanitizeFingerprint)
{
    EXPECT_EQ(sanitizeFingerprint("kmeans/split-doppelganger@00ff"),
              "kmeans_split-doppelganger@00ff");
    EXPECT_EQ(sanitizeFingerprint("a b\nc"), "a_b_c");
}

// ---------------------------------------------------------------------
// Exclusive append log: forked writers cannot tear records
// ---------------------------------------------------------------------

TEST(AppendLogExclusive, ForkedWritersNeverInterleave)
{
    TempDir dir;
    const std::string path = dir.path + "/log.jsonl";
    constexpr int writers = 4;
    constexpr int records = 24;
    // Records far beyond PIPE_BUF (4 KiB): without the flock bracket
    // O_APPEND makes no atomicity promise at this size, so a torn
    // interleave would be *expected* — the lock is what prevents it.
    constexpr size_t payload = 16384;

    std::vector<pid_t> pids;
    for (int w = 0; w < writers; ++w) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            AppendLog log(path);
            for (int r = 0; r < records; ++r) {
                std::string record = "w" + std::to_string(w) + ":" +
                                     std::to_string(r) + ":";
                record.append(payload - record.size() - 1,
                              static_cast<char>('a' + w));
                record += '\n';
                log.append(record);
            }
            _exit(0);
        }
        pids.push_back(pid);
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // Every line must be exactly one writer's complete record.
    std::ifstream in(path);
    std::string line;
    int seen[writers] = {};
    size_t total = 0;
    while (std::getline(in, line)) {
        ASSERT_EQ(line.size(), payload - 1);
        ASSERT_EQ(line[0], 'w');
        const int w = line[1] - '0';
        ASSERT_GE(w, 0);
        ASSERT_LT(w, writers);
        const char fill = static_cast<char>('a' + w);
        for (size_t i = line.rfind(':') + 1; i < line.size(); ++i)
            ASSERT_EQ(line[i], fill) << "torn record at byte " << i;
        ++seen[w];
        ++total;
    }
    EXPECT_EQ(total, static_cast<size_t>(writers * records));
    for (int w = 0; w < writers; ++w)
        EXPECT_EQ(seen[w], records);
}

// ---------------------------------------------------------------------
// Claim/lease protocol
// ---------------------------------------------------------------------

TEST(ClaimStore, AcquireRenewReleaseLifecycle)
{
    TempDir dir;
    ClaimStore a(dir.path, "workerA", 60000);

    EXPECT_EQ(a.tryClaim("fp1"), ClaimResult::Acquired);
    EXPECT_TRUE(a.renew("fp1"));

    // A live foreign lease refuses a second claimant.
    ClaimStore b(dir.path, "workerB", 60000);
    EXPECT_EQ(b.tryClaim("fp1"), ClaimResult::Busy);
    EXPECT_FALSE(b.renew("fp1"));

    // Release reopens the claim.
    a.release("fp1");
    EXPECT_EQ(b.tryClaim("fp1"), ClaimResult::Acquired);
}

TEST(ClaimStore, ExpiredLeaseIsReclaimed)
{
    TempDir dir;
    ClaimStore dying(dir.path, "workerA", 50); // 50 ms lease
    ASSERT_EQ(dying.tryClaim("fp1"), ClaimResult::Acquired);
    // workerA "dies": no heartbeat renews the lease.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));

    ClaimStore heir(dir.path, "workerB", 60000);
    EXPECT_EQ(heir.tryClaim("fp1"), ClaimResult::Reclaimed);
    // The stale holder has lost everything: renewal and finalize
    // both fail, so it can neither extend nor journal.
    EXPECT_FALSE(dying.renew("fp1"));
    bool appended = false;
    EXPECT_FALSE(dying.finalize("fp1", [&] { appended = true; }));
    EXPECT_FALSE(appended);
    // The rightful owner finalizes exactly once.
    EXPECT_TRUE(heir.finalize("fp1", [&] { appended = true; }));
    EXPECT_TRUE(appended);
}

TEST(ClaimStore, FinalizeRemovesClaimFile)
{
    TempDir dir;
    ClaimStore a(dir.path, "workerA", 60000);
    ASSERT_EQ(a.tryClaim("fp1"), ClaimResult::Acquired);
    ASSERT_TRUE(a.finalize("fp1", [] {}));
    EXPECT_FALSE(pathExists(dir.path + "/" +
                            sanitizeFingerprint("fp1")));
    // The lifecycle can restart (a reclaimer of a finished claim).
    EXPECT_EQ(a.tryClaim("fp1"), ClaimResult::Acquired);
}

TEST(ClaimStore, ClaimRecordWithAnUnknownKeyIsRefused)
{
    ClaimInfo info;
    info.fp = "fp1";
    info.worker = "workerA";
    info.pid = 42;
    info.expiresAtMs = 1000;
    const std::string text = claimRecordJson(info);
    ClaimInfo back;
    ASSERT_TRUE(parseClaimRecord(text, back));
    EXPECT_EQ(back.fp, "fp1");
    EXPECT_EQ(back.worker, "workerA");
    EXPECT_EQ(back.pid, 42u);
    EXPECT_EQ(back.expiresAtMs, 1000u);

    std::string extra = text;
    extra.insert(extra.size() - 1, ",\"lease\":5");
    EXPECT_FALSE(parseClaimRecord(extra, back));
}

// ---------------------------------------------------------------------
// Incremental journal tail
// ---------------------------------------------------------------------

TEST(JournalTailTest, ConsumesIncrementallyAndBuffersTornLines)
{
    TempDir dir;
    const std::string path = dir.path + "/journal.jsonl";
    const RunConfig cfg = tinyConfig("kmeans", "baseline");
    RunResult result = runWorkload(cfg);
    const std::string fp = configFingerprint(cfg);
    const std::string record = journalRecordJson(fp, result);

    JournalTail tail(path);
    std::unordered_set<std::string> completed;
    EXPECT_EQ(tail.refresh(completed), 0u); // no file yet

    // A torn append: first half of the record only.
    {
        std::ofstream out(path, std::ios::binary);
        out << record.substr(0, record.size() / 2);
    }
    EXPECT_EQ(tail.refresh(completed), 0u);
    EXPECT_TRUE(completed.empty());

    // The append completes; the buffered chunk joins up.
    {
        std::ofstream out(path,
                          std::ios::binary | std::ios::app);
        out << record.substr(record.size() / 2);
    }
    std::unordered_map<std::string, RunResult> records;
    EXPECT_EQ(tail.refresh(completed, &records), 1u);
    EXPECT_EQ(completed.count(fp), 1u);
    ASSERT_EQ(records.count(fp), 1u);
    EXPECT_EQ(journalRecordJson(fp, records.at(fp)), record);

    // Nothing new: refresh is a no-op, not a re-read.
    EXPECT_EQ(tail.refresh(completed), 0u);
}

// ---------------------------------------------------------------------
// Worker end-to-end
// ---------------------------------------------------------------------

TEST(CampaignWorker, DrainsABatchAndWritesSerialIdenticalCsv)
{
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    const std::vector<RunConfig> configs = smallCampaign(3);
    writeBatchFile(paths.batchPath("b1"), configs);

    const CampaignWorkerOutcome outcome =
        runCampaignWorker(testWorkerOptions(dir.path));
    EXPECT_EQ(outcome.runsCompleted, configs.size());
    EXPECT_EQ(outcome.runsFailed, 0u);

    BatchStatus st;
    ASSERT_TRUE(readBatchStatus(paths, "b1", st));
    EXPECT_EQ(st.state, "complete");
    EXPECT_EQ(st.completed, configs.size());

    // The service CSV must be byte-identical to a serial in-process
    // sweep of the same configs.
    std::vector<RunResult> serial;
    for (const RunConfig &cfg : configs)
        serial.push_back(runWorkload(cfg));
    TempDir serialDir;
    const std::string serialCsv = serialDir.path + "/serial.csv";
    writeResultsCsv(serialCsv, serial);
    EXPECT_EQ(readFile(paths.batchResultsPath("b1")),
              readFile(serialCsv));
}

TEST(CampaignWorker, SkipsJournaledConfigsOnRestart)
{
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    const std::vector<RunConfig> configs = smallCampaign(2);
    writeBatchFile(paths.batchPath("b1"), configs);

    // One config already completed in a previous life.
    {
        AppendLog journal(paths.journalPath());
        journal.append(journalRecordJson(
            configFingerprint(configs[0]), runWorkload(configs[0])));
    }

    const CampaignWorkerOutcome outcome =
        runCampaignWorker(testWorkerOptions(dir.path));
    EXPECT_EQ(outcome.runsCompleted, 1u); // only the missing one

    BatchStatus st;
    ASSERT_TRUE(readBatchStatus(paths, "b1", st));
    EXPECT_EQ(st.state, "complete");
}

TEST(CampaignWorker, RejectsMalformedBatchWithoutCrashing)
{
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    atomicWriteFile(paths.batchPath("bad"), "garbage\n");
    const std::vector<RunConfig> good = smallCampaign(1);
    writeBatchFile(paths.batchPath("good"), good);

    const CampaignWorkerOutcome outcome =
        runCampaignWorker(testWorkerOptions(dir.path));
    EXPECT_EQ(outcome.runsCompleted, 1u);

    BatchStatus bad;
    ASSERT_TRUE(readBatchStatus(paths, "bad", bad));
    EXPECT_EQ(bad.state, "failed");
    BatchStatus goodSt;
    ASSERT_TRUE(readBatchStatus(paths, "good", goodSt));
    EXPECT_EQ(goodSt.state, "complete");
}

TEST(CampaignWorker, BusyClaimIsRunAfterItsLeaseExpires)
{
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    const std::vector<RunConfig> configs = smallCampaign(3);
    writeBatchFile(paths.batchPath("b1"), configs);

    // A live foreign claim on the middle fingerprint: the worker must
    // pass it over, finish the rest, and take it once the lease ends.
    const std::string busyFp = configFingerprint(configs[1]);
    ClaimStore foreign(paths.claimsDir(), "foreign", 1500);
    ASSERT_EQ(foreign.tryClaim(busyFp), ClaimResult::Acquired);

    const CampaignWorkerOutcome outcome =
        runCampaignWorker(testWorkerOptions(dir.path));
    EXPECT_EQ(outcome.runsCompleted, configs.size());
    EXPECT_EQ(outcome.reclaims, 1u);

    // One record per fingerprint, the busy one last.
    const auto records = journalRecords(paths);
    ASSERT_EQ(records.size(), configs.size());
    EXPECT_EQ(records.back().first, busyFp);
    std::unordered_set<std::string> fps;
    for (const auto &[fp, r] : records)
        EXPECT_TRUE(fps.insert(fp).second) << "duplicate record for " << fp;

    BatchStatus st;
    ASSERT_TRUE(readBatchStatus(paths, "b1", st));
    EXPECT_EQ(st.state, "complete");
    std::vector<RunResult> serial;
    for (const RunConfig &cfg : configs)
        serial.push_back(runWorkload(cfg));
    TempDir serialDir;
    const std::string serialCsv = serialDir.path + "/serial.csv";
    writeResultsCsv(serialCsv, serial);
    EXPECT_EQ(readFile(paths.batchResultsPath("b1")),
              readFile(serialCsv));
    EXPECT_TRUE(listDir(paths.claimsDir()).empty());
}

// ---------------------------------------------------------------------
// Failed configs and stop
// ---------------------------------------------------------------------

TEST(CampaignFailureDeathTest, AlwaysThrowingConfigIsOneFailedRecord)
{
    registerTestOrganizations();
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    std::vector<RunConfig> configs = smallCampaign(1);
    configs.push_back(tinyConfig("kmeans", "test-throws-always", 0.01));
    writeBatchFile(paths.batchPath("b1"), configs);
    const std::string failedFp = configFingerprint(configs[1]);

    CampaignServiceOptions opts = testWorkerOptions(dir.path);
    opts.maxFailures = 2;
    const CampaignWorkerOutcome outcome = runCampaignWorker(opts);
    EXPECT_EQ(outcome.runsCompleted, 1u);
    EXPECT_EQ(outcome.runsFailed, 2u); // both attempts

    BatchStatus st;
    ASSERT_TRUE(readBatchStatus(paths, "b1", st));
    EXPECT_EQ(st.state, "failed");
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failed, 1u);
    EXPECT_FALSE(pathExists(paths.batchResultsPath("b1")));

    size_t failedRecords = 0;
    for (const auto &[fp, r] : journalRecords(paths)) {
        if (fp != failedFp)
            continue;
        ++failedRecords;
        EXPECT_TRUE(r.failed);
        EXPECT_EQ(r.error, "builder always throws");
    }
    EXPECT_EQ(failedRecords, 1u);

    CampaignBatch batch;
    std::string why;
    ASSERT_TRUE(loadCampaignBatch(paths.batchPath("b1"), "b1", batch, why))
        << why;
    EXPECT_EXIT(awaitCampaignResults(paths, batch, 10000),
                ::testing::ExitedWithCode(1),
                "campaign config '" + failedFp + "' permanently failed");
}

TEST(CampaignFailure, TransientFailureRetriesInTheClaimingWorker)
{
    registerTestOrganizations();
    throwsOnceFired = false;
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    const std::vector<RunConfig> configs = {
        tinyConfig("kmeans", "test-throws-once", 0.01)};
    writeBatchFile(paths.batchPath("b1"), configs);

    CampaignServiceOptions opts = testWorkerOptions(dir.path);
    opts.maxFailures = 2;
    const CampaignWorkerOutcome outcome = runCampaignWorker(opts);
    EXPECT_EQ(outcome.runsCompleted, 1u);
    EXPECT_EQ(outcome.runsFailed, 1u);

    BatchStatus st;
    ASSERT_TRUE(readBatchStatus(paths, "b1", st));
    EXPECT_EQ(st.state, "complete");
    const auto records = journalRecords(paths);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].first, configFingerprint(configs[0]));
    EXPECT_FALSE(records[0].second.failed);

    // The builder no longer throws: the serial reference runs clean.
    std::vector<RunResult> serial;
    for (const RunConfig &cfg : configs)
        serial.push_back(runWorkload(cfg));
    TempDir serialDir;
    const std::string serialCsv = serialDir.path + "/serial.csv";
    writeResultsCsv(serialCsv, serial);
    EXPECT_EQ(readFile(paths.batchResultsPath("b1")),
              readFile(serialCsv));
}

TEST(CampaignStop, StopFinishesInFlightRunsAndLeavesTheQueue)
{
    registerTestOrganizations();
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    // Each run sleeps 150 ms in its builder, three scan periods.
    std::vector<RunConfig> configs;
    for (u64 i = 0; i < 20; ++i) {
        configs.push_back(tinyConfig("kmeans", "test-slow", 0.01));
        configs.back().workload.seed = 7000 + i;
    }
    writeBatchFile(paths.batchPath("b1"), configs);

    std::atomic<bool> stop{false};
    CampaignServiceOptions opts = testWorkerOptions(dir.path);
    opts.exitWhenIdle = false; // only the stop ends the worker
    opts.externalStop = &stop;
    CampaignWorkerOutcome outcome;
    std::thread worker([&] { outcome = runCampaignWorker(opts); });

    JournalTail tail(paths.journalPath());
    std::unordered_set<std::string> journaled;
    for (int i = 0; i < 12000 && journaled.empty(); ++i) {
        tail.refresh(journaled);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop = true;
    worker.join();
    ASSERT_FALSE(journaled.empty()) << "worker made no progress";

    EXPECT_TRUE(outcome.stopRequested);
    const size_t records = journalRecords(paths).size();
    EXPECT_LT(records, configs.size());
    BatchStatus st;
    ASSERT_TRUE(readBatchStatus(paths, "b1", st));
    EXPECT_NE(st.state, "complete");
    // The status file counts the runs that finished after the stop.
    EXPECT_EQ(st.completed, records);
    // No claim record is left: the jobs a stop skips were never taken
    // or were released. (A heartbeat renewal racing a finalize can
    // leave an empty claim file, which claims nothing.)
    for (const std::string &f : listDir(paths.claimsDir()))
        EXPECT_EQ(readFile(paths.claimsDir() + "/" + f), "") << f;
}

TEST(CampaignStop, StopDuringTheLastRunStillCompletesTheBatch)
{
    registerTestOrganizations();
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    const std::vector<RunConfig> configs = {
        tinyConfig("kmeans", "test-slow", 0.01)};
    writeBatchFile(paths.batchPath("b1"), configs);
    const std::string claim = paths.claimsDir() + "/" +
                              sanitizeFingerprint(
                                  configFingerprint(configs[0]));

    std::atomic<bool> stop{false};
    CampaignServiceOptions opts = testWorkerOptions(dir.path);
    opts.exitWhenIdle = false;
    opts.externalStop = &stop;
    CampaignWorkerOutcome outcome;
    std::thread worker([&] { outcome = runCampaignWorker(opts); });

    // The claim is taken right before the 150 ms run starts.
    bool claimed = false;
    for (int i = 0; i < 12000 && !claimed; ++i) {
        claimed = pathExists(claim) && !readFile(claim).empty();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop = true;
    worker.join();
    ASSERT_TRUE(claimed) << "worker never claimed the run";

    EXPECT_TRUE(outcome.stopRequested);
    EXPECT_EQ(outcome.runsCompleted, 1u);
    BatchStatus st;
    ASSERT_TRUE(readBatchStatus(paths, "b1", st));
    EXPECT_EQ(st.state, "complete");
    EXPECT_EQ(st.completed, 1u);
    EXPECT_TRUE(pathExists(paths.batchResultsPath("b1")));
}

TEST(CampaignStop, LongHeartbeatDoesNotDelayExit)
{
    // The heartbeat waits on its stop, not a whole period: a worker
    // whose heartbeat renews once a minute still exits as soon as it
    // runs out of work.
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    writeBatchFile(paths.batchPath("b1"),
                   {tinyConfig("kmeans", "baseline", 0.05)});

    CampaignServiceOptions opts = testWorkerOptions(dir.path);
    opts.heartbeatMs = 60000;
    opts.leaseMs = 120000;
    const auto start = std::chrono::steady_clock::now();
    const CampaignWorkerOutcome outcome = runCampaignWorker(opts);
    const auto elapsedMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(outcome.runsCompleted, 1u);
    EXPECT_LT(elapsedMs, 30000);
}

TEST(CampaignStop, StopDuringARetryBackoffEndsTheWorker)
{
    // An organization that always throws and counts its attempts.
    static std::atomic<int> attemptsSeen{0};
    static bool registered = false;
    if (!registered) {
        registered = true;
        registerLlc("test-throws-counted",
                    [](MainMemory &, const ApproxRegistry &,
                       const RunConfig &, StatRegistry &,
                       const std::string &) -> LlcBuilt {
                        ++attemptsSeen;
                        throw std::runtime_error("builder always throws");
                    });
    }
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    const std::vector<RunConfig> configs = {
        tinyConfig("kmeans", "test-throws-counted", 0.01)};
    writeBatchFile(paths.batchPath("b1"), configs);
    const std::string claim = paths.claimsDir() + "/" +
                              sanitizeFingerprint(
                                  configFingerprint(configs[0]));

    // Eight attempts sleep about 12.7 s of backoff between them.
    std::atomic<bool> stop{false};
    CampaignServiceOptions opts = testWorkerOptions(dir.path);
    opts.maxFailures = 8;
    opts.externalStop = &stop;
    CampaignWorkerOutcome outcome;
    std::thread worker([&] { outcome = runCampaignWorker(opts); });

    for (int i = 0; i < 12000 && attemptsSeen.load() == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto start = std::chrono::steady_clock::now();
    stop = true;
    worker.join();
    const auto elapsedMs =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    ASSERT_GT(attemptsSeen.load(), 0) << "worker never ran the config";

    EXPECT_TRUE(outcome.stopRequested);
    EXPECT_LT(elapsedMs, 2000);
    EXPECT_LT(attemptsSeen.load(), 8);
    EXPECT_TRUE(journalRecords(paths).empty());
    EXPECT_FALSE(pathExists(claim));
}

// ---------------------------------------------------------------------
// Crash tolerance: SIGKILL a worker mid-sweep, reclaim, equivalence
// ---------------------------------------------------------------------

TEST(CampaignCrashTolerance, KilledWorkerIsReclaimedExactlyOnce)
{
    TempDir dir;
    SpoolPaths paths{dir.path};
    ensureSpoolLayout(paths);
    const std::vector<RunConfig> configs = smallCampaign(8, 0.05);
    writeBatchFile(paths.batchPath("b1"), configs);

    // Worker A in a child process, short lease so reclamation is
    // quick after the kill.
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        CampaignServiceOptions opts = testWorkerOptions(dir.path);
        opts.workerId = "victim";
        opts.exitWhenIdle = false; // keep going until killed
        runCampaignWorker(opts);
        _exit(0);
    }

    // Wait until the victim has journaled at least one record (so
    // the kill lands mid-sweep, not before any work happened). The
    // poll is tight so the kill catches the victim with most of the
    // batch still pending — and usually with a run in flight, whose
    // claim goes stale and must be lease-reclaimed.
    JournalTail tail(paths.journalPath());
    std::unordered_set<std::string> completed;
    for (int i = 0; i < 12000 && completed.empty(); ++i) {
        tail.refresh(completed);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_FALSE(completed.empty()) << "victim made no progress";

    // SIGKILL: no cleanup, no unlock, no journal flush — the kernel
    // drops its flocks and its claims go stale.
    ASSERT_EQ(kill(child, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    tail.refresh(completed);
    ASSERT_LT(completed.size(), configs.size())
        << "victim finished before the kill; nothing left to reclaim";

    // Worker B drains what is left, reclaiming the victim's stale
    // claims after lease expiry.
    CampaignServiceOptions heir = testWorkerOptions(dir.path);
    heir.workerId = "heir";
    const CampaignWorkerOutcome outcome = runCampaignWorker(heir);
    (void)outcome;

    BatchStatus st;
    ASSERT_TRUE(readBatchStatus(paths, "b1", st));
    EXPECT_EQ(st.state, "complete");

    // Exactly one final record per fingerprint, no duplicates.
    std::unordered_map<std::string, int> perFp;
    std::ifstream in(paths.journalPath());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string fp, why;
        RunResult r;
        ASSERT_TRUE(parseJournalRecord(line, fp, r, why)) << why;
        ++perFp[fp];
    }
    EXPECT_EQ(perFp.size(), configs.size());
    for (const auto &[fp, count] : perFp)
        EXPECT_EQ(count, 1) << "duplicate record for " << fp;

    // And the reconstructed CSV equals a clean serial sweep, byte
    // for byte — the acceptance bar.
    std::vector<RunResult> serial;
    for (const RunConfig &cfg : configs)
        serial.push_back(runWorkload(cfg));
    TempDir serialDir;
    const std::string serialCsv = serialDir.path + "/serial.csv";
    writeResultsCsv(serialCsv, serial);
    EXPECT_EQ(readFile(paths.batchResultsPath("b1")),
              readFile(serialCsv));
}

} // namespace dopp
