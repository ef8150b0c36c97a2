/**
 * @file
 * Parallel batch experiment runner: a fixed-size thread pool draining a
 * work queue of independent RunConfigs, plus the campaign resilience
 * layer (DESIGN.md §11) — journaled checkpoint/resume, per-run
 * watchdogs, retry with backoff, and graceful signal shutdown.
 *
 * Determinism contract (see DESIGN.md §9): every run is a pure function
 * of its own RunConfig — workload inputs are seeded from
 * cfg.workload.seed, the fault trace from cfg.fault.seed, and
 * runWorkload reads no global mutable state and, besides the output
 * path DOPP_STATS_JSON, only DOPP_SLICES and DOPP_SLICE_HASH (through
 * resolvedSliceConfig, for unset sliceCount/sliceHash), which every
 * run of a process sees alike — so the per-config RunResults of a
 * batch are bit-identical for any job count (including the serial
 * jobs=1 path) and any submission order. The resilience layer leans
 * on the same contract twice over: a journaled result can replace a
 * re-execution bit-for-bit, and a retried run is re-seeded
 * identically, so its outcome is still a pure function of the config.
 *
 * Robustness: a run that throws is reported as a failed RunResult
 * (failed=true, error=what()) without disturbing the pool or the other
 * runs; fatal()/panic() remain process-fatal by design (configuration
 * errors and simulator bugs should kill a sweep loudly). Cancellation
 * is cooperative: runs already executing finish, queued runs are
 * marked failed with error "cancelled" and still reported through
 * onProgress.
 */

#ifndef DOPP_HARNESS_BATCH_RUNNER_HH
#define DOPP_HARNESS_BATCH_RUNNER_HH

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "util/stats.hh"

namespace dopp
{

/**
 * Progress report for one finished (cancelled, failed, resumed or
 * completed) run. Non-copyable on purpose: @ref result refers to the
 * runner's slot for this run and is only guaranteed valid for the
 * duration of the onProgress callback — copy the RunResult itself
 * (not the BatchProgress) if you need it afterwards.
 */
struct BatchProgress
{
    size_t index;     ///< submission index of the run
    size_t completed; ///< runs finished so far, this one included
    size_t total;     ///< batch size
    bool resumed;     ///< reused from the journal, not executed
    const RunResult &result;

    BatchProgress(size_t index, size_t completed, size_t total,
                  bool resumed, const RunResult &result)
        : index(index), completed(completed), total(total),
          resumed(resumed), result(result)
    {
    }

    BatchProgress(const BatchProgress &) = delete;
    BatchProgress &operator=(const BatchProgress &) = delete;
};

/** Batch execution options. */
struct BatchOptions
{
    /**
     * Worker threads. 0: DOPP_JOBS from the environment, defaulting to
     * the hardware concurrency. 1: run serially on the calling thread
     * (no pool), the exact code path of a hand-rolled loop.
     */
    unsigned jobs = 0;

    /**
     * Called once per run as it finishes, from whichever thread ran
     * it, serialized by an internal mutex (never concurrently with
     * itself). Resumed runs report from the calling thread before any
     * worker starts. Must not throw. See BatchProgress for the
     * lifetime of the result reference.
     */
    std::function<void(const BatchProgress &)> onProgress;

    /**
     * Optional cooperative cancellation flag (pair with
     * installBatchSignalHandler() for ^C handling). Checked before
     * each run starts and between retry backoff slices; once set,
     * remaining queued runs are marked failed with error "cancelled"
     * and the batch returns as soon as in-flight runs finish.
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Per-run watchdog in wall-clock milliseconds (0: none). A run
     * exceeding the deadline is aborted cooperatively — the watchdog
     * sets the run's abort flag, the access path throws RunAborted,
     * and the run is marked failed with error "timeout" — without
     * killing the worker or disturbing the rest of the pool. The
     * deadline covers one attempt; each retry gets a fresh one.
     */
    u64 runTimeoutMs = 0;

    /**
     * Retries per run after a retryable failure (timeout or an
     * exception; "cancelled" and empty-workloadName configs never
     * retry). Attempt n sleeps retryBackoffMs << (n-1) plus up to 50%
     * deterministic jitter derived from (fingerprint, attempt), then
     * re-executes from the identical config — by the determinism
     * contract the retried run is the same pure function of the
     * config.
     */
    unsigned maxRetries = 0;

    /** Base of the exponential retry backoff, in milliseconds. */
    u64 retryBackoffMs = 100;

    /**
     * Optional registry for campaign counters, registered under
     * "batch": runsExecuted, runsResumed, runsRetried, runsTimedOut,
     * runsFailed, journalBytes. Registration is fatal on duplicates,
     * so pass a fresh registry (or a fresh group path) per campaign.
     */
    StatRegistry *stats = nullptr;
};

/** Everything a resumable campaign reports beyond the results. */
struct BatchOutcome
{
    /** Per-config results in submission order (resumed or executed). */
    std::vector<RunResult> results;

    size_t runsResumed = 0;  ///< reused from the journal
    size_t runsExecuted = 0; ///< actually (re-)executed
    size_t runsRetried = 0;  ///< retry attempts performed
    size_t runsTimedOut = 0; ///< watchdog expirations (all attempts)
    size_t runsFailed = 0;   ///< results with failed=true

    /** Whether the cancel flag cut the campaign short; if so the
     * journal holds every completed run and re-running the same
     * command resumes the remainder. */
    bool interrupted = false;
};

/** Resolve an effective job count: @p jobs, or DOPP_JOBS, or all
 * hardware threads. Always at least 1; fatal on a garbage DOPP_JOBS. */
unsigned batchJobs(unsigned jobs = 0);

/** What one runAttempts call did, for the caller's tallies. */
struct AttemptCounts
{
    size_t executed = 0; ///< attempts run (0 if cancelled first)
    size_t retried = 0;  ///< backoffs slept before a re-run
    size_t timedOut = 0; ///< attempts the watchdog aborted
};

/**
 * The attempt loop every run goes through: the batch runner's workers
 * and the campaign service's worker loop (DESIGN.md §11, §16). Runs @p cfg under
 * @p opt's cancel flag, per-attempt watchdog (runTimeoutMs, polled
 * every cfg.abortPollAccesses) and retries (maxRetries,
 * retryBackoffMs; jitter drawn from @p fingerprint, which is
 * configFingerprint(cfg), and the attempt number). Returns the last
 * attempt's result: "cancelled" if the flag was raised before
 * the first attempt or during a backoff, "timeout" for a watchdog
 * abort, what() of any other exception. Never throws; fatal() in a
 * run stays fatal.
 */
RunResult runAttempts(const RunConfig &cfg, const std::string &fingerprint,
                      const BatchOptions &opt, AttemptCounts &counts);

/**
 * Run every config in @p configs (each names its benchmark via
 * RunConfig::workloadName) and return the RunResults in submission
 * order. See the determinism contract above. Watchdog/retry options
 * apply; no journal is read or written.
 */
std::vector<RunResult> runBatch(const std::vector<RunConfig> &configs,
                                const BatchOptions &options = {});

/**
 * Resumable campaign: like runBatch, but checkpointed through the
 * JSONL journal at @p journal_path (harness/journal.hh).
 *
 * Before executing anything, the journal is loaded and every config
 * whose fingerprint matches a completed (non-failed) record — and
 * which carries no observation hooks (configResumable) — is resumed:
 * its recorded result is emitted through onProgress (resumed=true,
 * from the calling thread) and placed in the outcome without
 * re-execution. The remainder executes on the pool; each success is
 * appended to the journal (one fsync'd record) *before* its progress
 * callback, so any run the caller has seen complete is already
 * persisted. Failed and cancelled runs are never journaled — they
 * re-run on the next resume.
 *
 * By the determinism contract, a campaign killed at any point and
 * resumed with any job count produces bit-identical final results to
 * an uninterrupted jobs=1 execution. An empty @p journal_path is
 * fatal; pass runBatch for journal-less execution.
 */
BatchOutcome runBatchResumable(const std::vector<RunConfig> &configs,
                               const std::string &journal_path,
                               const BatchOptions &options = {});

/**
 * Install a SIGINT/SIGTERM handler that flips a process-wide cancel
 * flag (idempotent; first call wins). Pass the returned flag as
 * BatchOptions::cancel: the first signal lets in-flight runs finish
 * and the journal flush; a second signal — of *either* kind, so a
 * SIGTERM chasing a ^C is not swallowed into the already-set flag —
 * escalates to immediate shutdown by restoring the default
 * dispositions and re-raising. Async-signal-safe.
 *
 * @return the cancel flag the handler sets.
 */
const std::atomic<bool> *installBatchSignalHandler();

} // namespace dopp

#endif // DOPP_HARNESS_BATCH_RUNNER_HH
