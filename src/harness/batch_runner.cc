#include "batch_runner.hh"

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <exception>
#include <mutex>
#include <thread>
#include <unordered_set>

#include <unistd.h>

#include "harness/journal.hh"
#include "util/env.hh"
#include "util/hash.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "workloads/runtime.hh"

namespace dopp
{

unsigned
batchJobs(unsigned jobs)
{
    if (jobs)
        return jobs;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(
        envU64("DOPP_JOBS", hw, std::numeric_limits<unsigned>::max()));
}

namespace
{

/**
 * One attempt's watchdog: a timer thread that sets the attempt's abort
 * flag once @p timeout_ms pass, unless the attempt ends first. The
 * access path notices the flag and throws RunAborted
 * (workloads/runtime.hh), so the worker thread survives the timeout.
 * A zero timeout arms nothing.
 */
class Deadline
{
  public:
    Deadline(u64 timeout_ms, std::atomic<bool> &flag)
    {
        if (!timeout_ms)
            return;
        timer = std::thread([this, timeout_ms, &flag] {
            std::unique_lock<std::mutex> lock(mutex);
            if (!cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                             [this] { return ended; })) {
                flag.store(true, std::memory_order_release);
            }
        });
    }

    ~Deadline()
    {
        if (!timer.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex);
            ended = true;
        }
        cv.notify_one();
        timer.join();
    }

  private:
    std::mutex mutex;
    std::condition_variable cv;
    bool ended = false;
    std::thread timer;
};

/** Campaign counters under "batch" (null when no registry given). */
struct BatchCounters
{
    Counter *executed = nullptr;
    Counter *resumed = nullptr;
    Counter *retried = nullptr;
    Counter *timedOut = nullptr;
    Counter *failed = nullptr;
    Counter *journalBytes = nullptr;

    void
    init(StatRegistry *reg)
    {
        if (!reg)
            return;
        StatGroup g = reg->group("batch");
        executed = &g.counter("runsExecuted",
                              "runs actually (re-)executed");
        resumed = &g.counter("runsResumed",
                             "runs reused from the journal");
        retried = &g.counter("runsRetried",
                             "retry attempts performed");
        timedOut = &g.counter("runsTimedOut",
                              "per-run watchdog expirations");
        failed = &g.counter("runsFailed",
                            "runs that finished failed");
        journalBytes = &g.counter("journalBytes",
                                  "bytes appended to the journal");
    }
};

/** Shared state of one batch call; workers claim queue slots from the
 * atomic cursor, so the queue needs no locking of its own. */
struct BatchState
{
    const std::vector<RunConfig> &configs;
    const BatchOptions &opt;
    std::vector<RunResult> &results;

    /** Submission indices still to execute (post-resume). */
    std::vector<size_t> queue;

    /** Journaling (null for plain runBatch). */
    RunJournal *journal = nullptr;
    std::vector<std::string> fingerprints; // parallel to configs

    std::atomic<size_t> next{0};
    std::mutex progressMutex;
    size_t completed = 0; // guarded by progressMutex

    std::mutex tallyMutex; // guards tallies + counters + journaled
    BatchOutcome tallies;
    BatchCounters counters;
    std::unordered_set<std::string> journaled; // appended this campaign

    BatchState(const std::vector<RunConfig> &c, const BatchOptions &o,
               std::vector<RunResult> &r)
        : configs(c), opt(o), results(r)
    {
        counters.init(o.stats);
        fingerprints.reserve(c.size());
        for (const RunConfig &cfg : c)
            fingerprints.push_back(configFingerprint(cfg));
    }
};

bool
cancelRequested(const BatchOptions &opt)
{
    return opt.cancel && opt.cancel->load(std::memory_order_acquire);
}

/** Mark @p r failed without losing its identifying fields. */
void
markFailed(RunResult &r, const RunConfig &cfg, const std::string &why)
{
    r.workload = cfg.workloadName;
    r.organization = cfg.llcName;
    r.failed = true;
    r.error = why;
}

/**
 * Sleep the exponential backoff before retry @p attempt (1-based):
 * retryBackoffMs << (attempt-1), plus up to 50% jitter drawn
 * deterministically from (@p fp, attempt) so a rerun of the same
 * campaign backs off identically. Sleeps in short slices so a cancel
 * request cuts the wait short.
 * @return false if cancelled during the sleep.
 */
bool
backoffSleep(const BatchOptions &opt, const std::string &fp,
             unsigned attempt)
{
    Rng jitter(fnv1a64(fp) ^ attempt);
    const double base =
        static_cast<double>(opt.retryBackoffMs << (attempt - 1));
    u64 totalMs =
        static_cast<u64>(base * (1.0 + 0.5 * jitter.uniform()));
    while (totalMs > 0) {
        if (cancelRequested(opt))
            return false;
        const u64 slice = std::min<u64>(totalMs, 20);
        std::this_thread::sleep_for(std::chrono::milliseconds(slice));
        totalMs -= slice;
    }
    return !cancelRequested(opt);
}

void
bump(Counter *c, u64 n = 1)
{
    if (c)
        *c += n;
}

/** Execute (through runAttempts), journal, and report one run. */
void
runOne(BatchState &st, size_t index)
{
    const RunConfig &cfg = st.configs[index];
    RunResult &r = st.results[index];
    AttemptCounts counts;
    r = runAttempts(cfg, st.fingerprints[index], st.opt, counts);
    {
        std::lock_guard<std::mutex> lock(st.tallyMutex);
        st.tallies.runsExecuted += counts.executed;
        st.tallies.runsRetried += counts.retried;
        st.tallies.runsTimedOut += counts.timedOut;
        bump(st.counters.executed, counts.executed);
        bump(st.counters.retried, counts.retried);
        bump(st.counters.timedOut, counts.timedOut);
    }

    // Persist before reporting: any run the caller has seen complete
    // is already in the journal. Failed runs are never journaled —
    // they re-run on the next resume.
    if (st.journal && !r.failed) {
        const std::string &fp = st.fingerprints[index];
        bool append = false;
        {
            std::lock_guard<std::mutex> lock(st.tallyMutex);
            append = st.journaled.insert(fp).second;
        }
        if (append) {
            const u64 bytes = st.journal->append(fp, r);
            std::lock_guard<std::mutex> lock(st.tallyMutex);
            bump(st.counters.journalBytes, bytes);
        }
    }

    if (r.failed) {
        std::lock_guard<std::mutex> lock(st.tallyMutex);
        ++st.tallies.runsFailed;
        bump(st.counters.failed);
    }

    std::lock_guard<std::mutex> lock(st.progressMutex);
    ++st.completed;
    if (st.opt.onProgress) {
        BatchProgress p{index, st.completed, st.configs.size(), false,
                        r};
        st.opt.onProgress(p);
    }
}

void
workerLoop(BatchState &st)
{
    const size_t total = st.queue.size();
    for (;;) {
        const size_t slot =
            st.next.fetch_add(1, std::memory_order_relaxed);
        if (slot >= total)
            return;
        runOne(st, st.queue[slot]);
    }
}

/** Drain st.queue on the pool (or the calling thread for jobs<=1). */
void
drainQueue(BatchState &st)
{
    if (st.queue.empty())
        return;

    const unsigned jobs = std::min<unsigned>(
        batchJobs(st.opt.jobs),
        static_cast<unsigned>(st.queue.size()));

    if (jobs <= 1) {
        workerLoop(st); // serial path: the caller's own thread
        return;
    }

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        pool.emplace_back([&st]() { workerLoop(st); });
    for (auto &t : pool)
        t.join();
}

} // namespace

std::vector<RunResult>
runBatch(const std::vector<RunConfig> &configs,
         const BatchOptions &options)
{
    std::vector<RunResult> results(configs.size());
    if (configs.empty())
        return results;

    BatchState st(configs, options, results);
    st.queue.resize(configs.size());
    for (size_t i = 0; i < configs.size(); ++i)
        st.queue[i] = i;
    drainQueue(st);
    return results;
}

RunResult
runAttempts(const RunConfig &cfg, const std::string &fingerprint,
            const BatchOptions &opt, AttemptCounts &counts)
{
    RunResult r;
    if (cancelRequested(opt)) {
        markFailed(r, cfg, "cancelled");
        return r;
    }
    if (cfg.workloadName.empty()) {
        markFailed(r, cfg, "config has no workloadName");
        return r;
    }
    for (unsigned attempt = 0;; ++attempt) {
        if (attempt > 0) {
            if (!backoffSleep(opt, fingerprint, attempt)) {
                markFailed(r, cfg, "cancelled");
                return r;
            }
            ++counts.retried;
        }

        r = RunResult(); // clear any failed previous attempt
        std::atomic<bool> abort{false};
        RunConfig attemptCfg = cfg; // re-seeded identically
        attemptCfg.abortFlag = &abort;
        try {
            const Deadline deadline(opt.runTimeoutMs, abort);
            r = runWorkload(attemptCfg.workloadName, attemptCfg);
        } catch (const RunAborted &) {
            markFailed(r, cfg, "timeout");
            ++counts.timedOut;
        } catch (const std::exception &e) {
            markFailed(r, cfg, e.what());
        } catch (...) {
            markFailed(r, cfg, "unknown exception");
        }
        ++counts.executed;

        if (!r.failed || attempt >= opt.maxRetries ||
            cancelRequested(opt)) {
            return r;
        }
    }
}

BatchOutcome
runBatchResumable(const std::vector<RunConfig> &configs,
                  const std::string &journal_path,
                  const BatchOptions &options)
{
    if (journal_path.empty())
        fatal("runBatchResumable: empty journal path (use runBatch "
              "for journal-less execution)");

    BatchOutcome outcome;
    outcome.results.resize(configs.size());
    if (configs.empty())
        return outcome;

    const LoadedJournal loaded = loadJournal(journal_path);
    RunJournal journal(journal_path);

    BatchState st(configs, options, outcome.results);
    st.journal = &journal;

    // Resume pass: reuse every completed record whose config records
    // no trace; report them first, in submission order, from the
    // calling thread.
    for (size_t i = 0; i < configs.size(); ++i) {
        const auto it = loaded.records.find(st.fingerprints[i]);
        if (it == loaded.records.end() || it->second.failed ||
            !configResumable(configs[i])) {
            st.queue.push_back(i);
            continue;
        }
        outcome.results[i] = it->second;
        ++st.tallies.runsResumed;
        bump(st.counters.resumed);
        ++st.completed;
        if (options.onProgress) {
            BatchProgress p{i, st.completed, configs.size(), true,
                            outcome.results[i]};
            options.onProgress(p);
        }
    }

    drainQueue(st);

    st.tallies.results = std::move(outcome.results);
    outcome = std::move(st.tallies);
    outcome.interrupted = cancelRequested(options);
    return outcome;
}

namespace
{

std::atomic<bool> signalCancelFlag{false};
std::atomic<int> signalCount{0};

extern "C" void
batchSignalHandler(int sig)
{
    signalCancelFlag.store(true, std::memory_order_release);
    if (signalCount.fetch_add(1, std::memory_order_acq_rel) == 0) {
        static const char msg[] =
            "\n[dopp] signal received: finishing in-flight runs and "
            "flushing the journal; send again to kill\n";
        const ssize_t rc = ::write(2, msg, sizeof(msg) - 1);
        (void)rc;
        return;
    }
    // Second signal of either kind during the graceful drain:
    // escalate to immediate shutdown. Restoring only the received
    // signal's disposition would swallow a SIGTERM chasing a ^C (or
    // vice versa) into the already-set flag — restore both, then
    // re-raise so the process dies with the correct signal status.
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    static const char killMsg[] =
        "\n[dopp] second signal: shutting down immediately\n";
    const ssize_t rc = ::write(2, killMsg, sizeof(killMsg) - 1);
    (void)rc;
    ::raise(sig);
}

} // namespace

const std::atomic<bool> *
installBatchSignalHandler()
{
    static std::once_flag once;
    std::call_once(once, [] {
        std::signal(SIGINT, batchSignalHandler);
        std::signal(SIGTERM, batchSignalHandler);
    });
    return &signalCancelFlag;
}

} // namespace dopp
