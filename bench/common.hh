/**
 * @file
 * Shared plumbing for the per-figure bench binaries: environment-tuned
 * workload scale, snapshot cadence, and the batch-runner front end all
 * sweeps go through.
 *
 * Environment knobs (all strictly parsed; garbage values are fatal):
 *   DOPP_JOBS             concurrent runs (default: hardware threads)
 *   DOPP_WORKLOAD_SCALE   input-size multiplier (default 1.0)
 *   DOPP_SNAPSHOT_PERIOD  accesses between LLC snapshots (default 400k)
 *   DOPP_JOURNAL          checkpoint journal path; set it to make the
 *                         sweep resumable (kill it, rerun the same
 *                         command, completed runs are skipped)
 *   DOPP_RUN_TIMEOUT_MS   per-run watchdog deadline (default: none)
 *   DOPP_MAX_RETRIES      retries per run after a retryable failure
 *                         (default 0)
 *   DOPP_SPOOL            campaign-service spool root: instead of
 *                         running locally, submit the sweep as a
 *                         batch to a doppd daemon watching that
 *                         spool, poll the shared journal, and return
 *                         the daemon-executed results (bit-identical
 *                         by the determinism contract). Overrides
 *                         DOPP_JOURNAL. DOPP_SPOOL_TIMEOUT_MS bounds
 *                         the wait (default 600000).
 *   DOPP_SPOOL_DUMP       write the sweep as a campaign batch file
 *                         to this path and exit without running
 *                         anything — feedstock for doppctl submit
 *
 * Sliced-LLC knobs (DESIGN.md §15; resolution explicit > env >
 * default, read by resolvedSliceConfig for every run built through
 * the factory):
 *   DOPP_SLICES           LLC slice count (unset: unsliced build;
 *                         1 is bit-identical to unsliced; ≥2 must be
 *                         a power of two)
 *   DOPP_SLICE_HASH       slice-selection policy, "bitselect"
 *                         (default) or "sandybridge"
 */

#ifndef DOPP_BENCH_COMMON_HH
#define DOPP_BENCH_COMMON_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/batch_runner.hh"
#include "harness/campaign_service.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "util/env.hh"
#include "util/fileio.hh"
#include "util/logging.hh"

namespace dopp::bench
{

inline u64
snapshotPeriod()
{
    return envU64("DOPP_SNAPSHOT_PERIOD", 400000);
}

/** @p r's runtime ("run.runtimeCycles") relative to @p base's. */
inline double
normalizedRuntime(const RunResult &r, const RunResult &base)
{
    return static_cast<double>(r.stats.counter("run.runtimeCycles")) /
        static_cast<double>(base.stats.counter("run.runtimeCycles"));
}

/** Off-chip blocks moved by @p r: demand reads plus writebacks. */
inline u64
offChipTraffic(const RunResult &r)
{
    return r.stats.counter("mem.reads") + r.stats.counter("mem.writes");
}

/** Run configuration for @p workload on organization @p org at the
 * environment's scale. */
inline RunConfig
defaultConfig(const std::string &workload,
              const std::string &org = "baseline")
{
    RunConfig cfg;
    cfg.workloadName = workload;
    cfg.llcName = org;
    cfg.workload.scale = workloadScaleFromEnv();
    return cfg;
}

/** defaultConfig on the baseline LLC, running @p analyses
 * (findSnapshotAnalysis) on a snapshot every snapshotPeriod()
 * accesses and at the end of the run. */
inline RunConfig
snapshotConfig(const std::string &workload,
               std::vector<std::string> analyses)
{
    RunConfig cfg = defaultConfig(workload);
    cfg.snapshotPeriod = snapshotPeriod();
    cfg.snapshotAnalyses = std::move(analyses);
    return cfg;
}

/** Analysis @p name of @p r averaged over the run's snapshots. */
inline double
snapshotMean(const RunResult &r, const std::string &name)
{
    return r.stats.value("snapshot." + name + ".mean");
}

/**
 * Run @p configs through the resilient batch runner (DOPP_JOBS-way
 * parallel) with a live progress line per finished run, and return
 * the results in submission order.
 *
 * Resilience plumbing (harness/batch_runner.hh): when DOPP_JOURNAL is
 * set the campaign checkpoints every completed run into that JSONL
 * journal and skips fingerprint-matching completed runs on rerun;
 * SIGINT/SIGTERM stop the sweep gracefully (in-flight runs finish,
 * the journal is flushed) and print the resume recipe. A config that
 * records a trace (tracePath) always re-executes — a journal cannot
 * replay that side effect. DOPP_RUN_TIMEOUT_MS
 * arms a per-run watchdog and DOPP_MAX_RETRIES bounds retries.
 *
 * Any failed run is fatal: bench sweeps have no use for partial
 * figures.
 */
inline std::vector<RunResult>
runCampaign(const std::vector<RunConfig> &configs)
{
    BatchOptions opt;
    opt.cancel = installBatchSignalHandler();
    opt.runTimeoutMs = envU64("DOPP_RUN_TIMEOUT_MS", 0);
    opt.maxRetries = static_cast<unsigned>(
        envU64("DOPP_MAX_RETRIES", 0, std::numeric_limits<unsigned>::max()));
    opt.onProgress = [](const BatchProgress &p) {
        std::fprintf(stderr, "[bench] %zu/%zu %s on %s%s%s\n",
                     p.completed, p.total, p.result.workload.c_str(),
                     p.result.organization.c_str(),
                     p.resumed ? " (journal)" : "",
                     p.result.failed ? " FAILED" : "");
    };

    // Campaign-service client mode (harness/campaign_service.hh):
    // serialize the sweep as a batch, hand it to a doppd daemon, and
    // reconstruct the results from the shared journal — the bench
    // binary is a pure client, execution happens in the worker pool.
    const char *spool = std::getenv("DOPP_SPOOL");
    const char *dump = std::getenv("DOPP_SPOOL_DUMP");
    if ((spool && *spool) || (dump && *dump)) {
        std::string text;
        CampaignBatch batch;
        for (const RunConfig &cfg : configs) {
            text += campaignConfigJson(cfg);
            batch.configs.push_back(cfg);
            batch.fingerprints.push_back(configFingerprint(cfg));
        }
        if (dump && *dump) {
            atomicWriteFile(dump, text);
            std::fprintf(stderr,
                         "[bench] spooled %zu configs to %s; submit "
                         "with doppctl\n",
                         configs.size(), dump);
            std::exit(0);
        }
        SpoolPaths paths{spool};
        ensureSpoolLayout(paths);
        const std::string name = envToken(
            "DOPP_SPOOL_BATCH",
            "bench-" + std::to_string(static_cast<long>(::getpid())));
        batch.name = name;
        if (!pathExists(paths.batchPath(name)))
            atomicWriteFile(paths.batchPath(name), text);
        std::fprintf(stderr,
                     "[bench] submitted batch '%s' (%zu configs) to "
                     "spool %s; waiting for the daemon\n",
                     name.c_str(), configs.size(), spool);
        return awaitCampaignResults(
            paths, batch, envU64("DOPP_SPOOL_TIMEOUT_MS", 600000));
    }

    const char *journal = std::getenv("DOPP_JOURNAL");
    std::vector<RunResult> results;
    if (journal && *journal) {
        BatchOutcome out = runBatchResumable(configs, journal, opt);
        if (out.interrupted) {
            const size_t done = static_cast<size_t>(std::count_if(
                out.results.begin(), out.results.end(),
                [](const RunResult &r) { return !r.failed; }));
            fatal("sweep interrupted: %zu/%zu runs completed and "
                  "journaled; rerun the same command with "
                  "DOPP_JOURNAL=%s to resume",
                  done, configs.size(), journal);
        }
        results = std::move(out.results);
    } else {
        results = runBatch(configs, opt);
        if (opt.cancel->load()) {
            fatal("sweep interrupted (set DOPP_JOURNAL=<path> to "
                  "make sweeps resumable)");
        }
    }

    for (const RunResult &r : results) {
        if (r.failed) {
            fatal("batch run %s on %s failed: %s", r.workload.c_str(),
                  r.organization.c_str(), r.error.c_str());
        }
    }
    return results;
}

} // namespace dopp::bench

#endif // DOPP_BENCH_COMMON_HH
