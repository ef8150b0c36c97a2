/**
 * @file
 * Batch-runner tests: serial/parallel/shuffled equivalence of a mixed
 * batch, pool robustness (throwing runs, cancellation, a 200-config
 * stress batch), concurrent self-determinism, and the DOPP_JOBS knob.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "harness/batch_runner.hh"
#include "harness/results_io.hh"
#include "util/random.hh"

namespace dopp
{

namespace
{

RunConfig
tinyConfig(const std::string &workload, const std::string &org,
           double scale = 0.03)
{
    RunConfig cfg;
    cfg.workloadName = workload;
    cfg.llcName = org;
    cfg.workload.scale = scale;
    return cfg;
}

/**
 * The mixed batch of the equivalence suite: every LLC organization,
 * two small workloads each, plus one faulted + guardrailed run so the
 * fault-injector and guardrail state are covered by the contract.
 */
std::vector<RunConfig>
mixedBatch()
{
    const char *const orgs[] = {"baseline", "split-doppelganger",
                                "uniDoppelganger", "dedup", "bdi"};
    std::vector<RunConfig> configs;
    for (const char *org : orgs) {
        configs.push_back(tinyConfig("kmeans", org));
        configs.push_back(tinyConfig("jpeg", org));
    }
    RunConfig faulted = tinyConfig("blackscholes", "split-doppelganger");
    faulted.fault.dataRate = 0.01;
    faulted.fault.tagMetaRate = 0.01;
    faulted.qor.budget = 0.001;
    faulted.qor.window = 16;
    faulted.qor.minDwell = 8;
    configs.push_back(std::move(faulted));
    return configs;
}

/** Assert two results of the same config are bit-identical. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    ASSERT_FALSE(a.failed) << a.error;
    ASSERT_FALSE(b.failed) << b.error;
    // The CSV row covers every exported stat field verbatim.
    EXPECT_EQ(runResultCsvRow(a), runResultCsvRow(b));
    ASSERT_EQ(a.output.size(), b.output.size());
    for (size_t i = 0; i < a.output.size(); ++i)
        EXPECT_EQ(a.output[i], b.output[i]) << "output element " << i;
    // Every counter, runtime, occupancy and guardrail scalar included.
    EXPECT_EQ(a.stats, b.stats);
    ASSERT_EQ(a.faultTrace.size(), b.faultTrace.size());
    for (size_t i = 0; i < a.faultTrace.size(); ++i) {
        EXPECT_EQ(a.faultTrace[i].op, b.faultTrace[i].op);
        EXPECT_EQ(a.faultTrace[i].domain, b.faultTrace[i].domain);
        EXPECT_EQ(a.faultTrace[i].entry, b.faultTrace[i].entry);
        EXPECT_EQ(a.faultTrace[i].field, b.faultTrace[i].field);
        EXPECT_EQ(a.faultTrace[i].bit, b.faultTrace[i].bit);
    }
}

} // namespace

TEST(BatchRunner, EmptyBatch)
{
    EXPECT_TRUE(runBatch({}).empty());
}

TEST(BatchRunner, SerialParallelShuffledEquivalence)
{
    const std::vector<RunConfig> configs = mixedBatch();
    const size_t n = configs.size();

    BatchOptions serial;
    serial.jobs = 1;
    const std::vector<RunResult> atOne = runBatch(configs, serial);

    BatchOptions parallel;
    parallel.jobs = 4;
    const std::vector<RunResult> atFour = runBatch(configs, parallel);

    // Shuffled submission order: run the same configs permuted, then
    // un-permute the results before comparing.
    std::vector<size_t> perm(n);
    std::iota(perm.begin(), perm.end(), size_t{0});
    Rng rng(2024);
    for (size_t i = n - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
    std::vector<RunConfig> shuffled;
    for (size_t i : perm)
        shuffled.push_back(configs[i]);
    const std::vector<RunResult> shuffledResults =
        runBatch(shuffled, parallel);

    ASSERT_EQ(atOne.size(), n);
    ASSERT_EQ(atFour.size(), n);
    ASSERT_EQ(shuffledResults.size(), n);
    for (size_t i = 0; i < n; ++i) {
        SCOPED_TRACE(configs[i].workloadName + " on " +
                     configs[i].llcName);
        expectIdentical(atOne[i], atFour[i]);
        // shuffledResults[j] ran configs[perm[j]].
        const size_t j = static_cast<size_t>(
            std::find(perm.begin(), perm.end(), i) - perm.begin());
        expectIdentical(atOne[i], shuffledResults[j]);
    }
}

TEST(BatchRunner, MatchesDirectRunWorkload)
{
    const RunConfig cfg = tinyConfig("kmeans", "uniDoppelganger");
    const RunResult direct = runWorkload(cfg);
    BatchOptions opt;
    opt.jobs = 2;
    const std::vector<RunResult> batch = runBatch({cfg, cfg}, opt);
    expectIdentical(direct, batch[0]);
    expectIdentical(direct, batch[1]);
}

TEST(BatchRunner, ConcurrentSelfDeterminism)
{
    // The same RunConfig racing itself on every worker must stay
    // independent: any shared mutable state in the workloads, the
    // fault injector or the guardrail would show up here.
    RunConfig cfg = tinyConfig("jmeint", "split-doppelganger");
    cfg.fault.dataRate = 0.02;
    cfg.fault.mtagMetaRate = 0.02;
    cfg.qor.budget = 0.001;
    const std::vector<RunConfig> configs(4, cfg);
    BatchOptions opt;
    opt.jobs = 4;
    const std::vector<RunResult> results = runBatch(configs, opt);
    for (size_t i = 1; i < results.size(); ++i) {
        SCOPED_TRACE(i);
        expectIdentical(results[0], results[i]);
    }
}

TEST(BatchRunner, ThrowingRunFailsWithoutKillingPool)
{
    std::vector<RunConfig> configs;
    configs.push_back(tinyConfig("kmeans", "baseline"));
    RunConfig bad = tinyConfig("kmeans", "split-doppelganger");
    bad.snapshotPeriod = 1000; // at least one snapshot is guaranteed
    bad.onSnapshot = [](const Snapshot &) {
        throw std::runtime_error("snapshot hook exploded");
    };
    configs.push_back(std::move(bad));
    configs.push_back(tinyConfig("jpeg", "uniDoppelganger"));

    BatchOptions opt;
    opt.jobs = 3;
    const std::vector<RunResult> results = runBatch(configs, opt);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_GT(results[0].stats.counter("run.runtimeCycles"), 0u);
    EXPECT_TRUE(results[1].failed);
    EXPECT_EQ(results[1].error, "snapshot hook exploded");
    EXPECT_EQ(results[1].workload, "kmeans");
    EXPECT_EQ(results[1].organization, "split-doppelganger");
    EXPECT_FALSE(results[2].failed);
    EXPECT_GT(results[2].stats.counter("run.runtimeCycles"), 0u);
}

TEST(BatchRunner, MissingWorkloadNameFailsThatRunOnly)
{
    std::vector<RunConfig> configs;
    configs.push_back(RunConfig{}); // no workloadName
    configs.push_back(tinyConfig("kmeans", "baseline"));
    const std::vector<RunResult> results = runBatch(configs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].failed);
    EXPECT_NE(results[0].error.find("workloadName"), std::string::npos);
    EXPECT_FALSE(results[1].failed);
}

TEST(BatchRunner, CancelledBeforeStartCancelsEverything)
{
    const std::vector<RunConfig> configs(
        8, tinyConfig("kmeans", "baseline"));
    std::atomic<bool> cancel{true};
    BatchOptions opt;
    opt.jobs = 4;
    opt.cancel = &cancel;
    const std::vector<RunResult> results = runBatch(configs, opt);
    for (const RunResult &r : results) {
        EXPECT_TRUE(r.failed);
        EXPECT_EQ(r.error, "cancelled");
        EXPECT_EQ(r.workload, "kmeans");
    }
}

TEST(BatchRunner, MidBatchCancellationSkipsQueuedRuns)
{
    // Serial pool: the first run trips the cancel flag from inside its
    // snapshot hook, so every queued run after it must be cancelled —
    // deterministically, since jobs=1 executes in submission order.
    std::atomic<bool> cancel{false};
    std::vector<RunConfig> configs;
    RunConfig first = tinyConfig("kmeans", "baseline");
    first.snapshotPeriod = 1000;
    first.onSnapshot = [&cancel](const Snapshot &) {
        cancel.store(true, std::memory_order_release);
    };
    configs.push_back(std::move(first));
    for (int i = 0; i < 5; ++i)
        configs.push_back(tinyConfig("kmeans", "baseline"));

    BatchOptions opt;
    opt.jobs = 1;
    opt.cancel = &cancel;
    const std::vector<RunResult> results = runBatch(configs, opt);
    ASSERT_EQ(results.size(), 6u);
    EXPECT_FALSE(results[0].failed); // in-flight run completes
    for (size_t i = 1; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].failed) << i;
        EXPECT_EQ(results[i].error, "cancelled");
    }
}

TEST(BatchRunner, ThreadedCancellationPartitionsCleanly)
{
    std::atomic<bool> cancel{false};
    std::vector<RunConfig> configs;
    RunConfig first = tinyConfig("kmeans", "baseline");
    first.snapshotPeriod = 1000;
    first.onSnapshot = [&cancel](const Snapshot &) {
        cancel.store(true, std::memory_order_release);
    };
    configs.push_back(std::move(first));
    for (int i = 0; i < 19; ++i)
        configs.push_back(tinyConfig("kmeans", "baseline"));

    BatchOptions opt;
    opt.jobs = 2;
    opt.cancel = &cancel;
    const std::vector<RunResult> results = runBatch(configs, opt);
    size_t ok = 0;
    for (const RunResult &r : results) {
        if (r.failed) {
            EXPECT_EQ(r.error, "cancelled");
        } else {
            EXPECT_GT(r.stats.counter("run.runtimeCycles"), 0u);
            ++ok;
        }
    }
    EXPECT_GE(ok, 1u); // the triggering run itself completes
}

TEST(BatchRunner, StressManyTinyRuns)
{
    // 200 concurrent tiny runs through the env-resolved pool width;
    // scripts/sanitize_check.sh re-runs this under ASan/UBSan with
    // DOPP_JOBS=4. Identical configs must keep producing identical
    // rows no matter which worker they land on.
    const RunConfig variants[] = {
        tinyConfig("kmeans", "baseline", 0.01),
        tinyConfig("kmeans", "split-doppelganger", 0.01),
        tinyConfig("blackscholes", "uniDoppelganger", 0.01),
        tinyConfig("inversek2j", "bdi", 0.01),
    };
    std::vector<RunConfig> configs;
    for (int i = 0; i < 200; ++i)
        configs.push_back(variants[i % 4]);

    std::vector<size_t> seenCompleted;
    std::vector<size_t> seenIndices;
    BatchOptions opt; // jobs=0: DOPP_JOBS or hardware concurrency
    opt.onProgress = [&](const BatchProgress &p) {
        seenCompleted.push_back(p.completed);
        seenIndices.push_back(p.index);
        EXPECT_EQ(p.total, 200u);
    };
    const std::vector<RunResult> results = runBatch(configs, opt);

    ASSERT_EQ(results.size(), 200u);
    for (int i = 0; i < 200; ++i) {
        ASSERT_FALSE(results[i].failed) << results[i].error;
        EXPECT_EQ(runResultCsvRow(results[i]),
                  runResultCsvRow(results[i % 4]));
    }
    // The progress callback is serialized: completed counts 1..200,
    // each index reported exactly once.
    ASSERT_EQ(seenCompleted.size(), 200u);
    for (size_t i = 0; i < 200; ++i)
        EXPECT_EQ(seenCompleted[i], i + 1);
    std::sort(seenIndices.begin(), seenIndices.end());
    for (size_t i = 0; i < 200; ++i)
        EXPECT_EQ(seenIndices[i], i);
}

TEST(BatchRunner, BatchJobsResolution)
{
    EXPECT_EQ(batchJobs(7), 7u);
    unsetenv("DOPP_JOBS");
    EXPECT_GE(batchJobs(0), 1u); // hardware concurrency fallback
    setenv("DOPP_JOBS", "3", 1);
    EXPECT_EQ(batchJobs(0), 3u);
    EXPECT_EQ(batchJobs(2), 2u); // explicit option beats the env
    unsetenv("DOPP_JOBS");
}

TEST(BatchRunnerDeathTest, GarbageJobsEnvIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("DOPP_JOBS", "abc", 1);
            batchJobs(0);
        },
        ::testing::ExitedWithCode(1), "DOPP_JOBS='abc'");
    EXPECT_EXIT(
        {
            setenv("DOPP_JOBS", "-4", 1);
            batchJobs(0);
        },
        ::testing::ExitedWithCode(1), "not a positive integer");
}

TEST(BatchRunnerDeathTest, OverRangeSlicesEnvIsFatal)
{
    // 2^32 used to wrap to 0 (unsliced) and 2^32 + 4 to 4 slices.
    EXPECT_EXIT(
        {
            setenv("DOPP_SLICES", "4294967296", 1);
            resolvedSliceConfig(RunConfig{});
        },
        ::testing::ExitedWithCode(1),
        "DOPP_SLICES='4294967296' is not a positive integer in "
        "\\[1, 4294967295\\]");
}

namespace
{

/** Exec doppd --oneshot on an empty spool with @p flag = @p value. */
void
execDoppd(const char *flag, const char *value,
          const char *extra_flag = nullptr, const char *extra = nullptr)
{
    const std::string spool = ::testing::TempDir() + "doppd_flags";
    execl(DOPPD_PATH, "doppd", "--spool", spool.c_str(), "--oneshot",
          flag, value, extra_flag, extra, static_cast<char *>(nullptr));
}

} // namespace

TEST(DoppdDeathTest, EmptyNegativeAndOverRangeValuesAreFatal)
{
    // Each of these used to parse (as 0, 2^64-1 and 0) and exit 0; a
    // --lease-ms of 2^64-1 means a dead worker's claims never expire.
    EXPECT_EXIT(execDoppd("--workers", ""), ::testing::ExitedWithCode(1),
                "--workers='' is not an integer");
    EXPECT_EXIT(execDoppd("--lease-ms", "-1"),
                ::testing::ExitedWithCode(1),
                "--lease-ms='-1' is not an integer");
    EXPECT_EXIT(execDoppd("--workers", "4294967296"),
                ::testing::ExitedWithCode(1),
                "--workers='4294967296' is not an integer in "
                "\\[0, 4294967295\\]");
    EXPECT_EXIT(execDoppd("--max-runtime-ms", "18446744073709551616"),
                ::testing::ExitedWithCode(1),
                "--max-runtime-ms='18446744073709551616' is not an "
                "integer");
}

TEST(ExampleArgsDeathTest, ImagePipelineRejectsBadArgumentsBeforeAnyRun)
{
    // "abc" used to become mapBits 0, and the run panicked on the map
    // kernels' assert after a full baseline jpeg run. Each of these
    // now exits before any run.
    EXPECT_EXIT(execl(IMAGE_PIPELINE_PATH, "image_pipeline", "abc",
                      static_cast<char *>(nullptr)),
                ::testing::ExitedWithCode(1),
                "map_bits='abc' is not a positive integer in \\[1, 30\\]");
    EXPECT_EXIT(execl(IMAGE_PIPELINE_PATH, "image_pipeline", "31",
                      static_cast<char *>(nullptr)),
                ::testing::ExitedWithCode(1), "map_bits='31'");
    EXPECT_EXIT(execl(IMAGE_PIPELINE_PATH, "image_pipeline", "14", "0.25x",
                      static_cast<char *>(nullptr)),
                ::testing::ExitedWithCode(1),
                "data_fraction='0.25x' is not a positive number");
    EXPECT_EXIT(execl(IMAGE_PIPELINE_PATH, "image_pipeline", "14", "1e-9",
                      static_cast<char *>(nullptr)),
                ::testing::ExitedWithCode(1), "dataFraction 1e-09");
}

TEST(DoppdDeathTest, HeartbeatPastHalfTheLeaseIsFatal)
{
    // heartbeat * 2 wrapped to 0 and slipped past the lease check.
    EXPECT_EXIT(execDoppd("--heartbeat-ms", "9223372036854775808",
                          "--lease-ms", "4000"),
                ::testing::ExitedWithCode(1),
                "must be at most half of --lease-ms");
    EXPECT_EXIT(execDoppd("--heartbeat-ms", "3000", "--lease-ms", "4000"),
                ::testing::ExitedWithCode(1),
                "must be at most half of --lease-ms");
}

} // namespace dopp
