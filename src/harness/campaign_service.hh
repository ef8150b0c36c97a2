/**
 * @file
 * Campaign service: a crash-tolerant multi-process sweep daemon on
 * the shared run journal (DESIGN.md §16).
 *
 * The batch runner (batch_runner.hh) executes one campaign inside one
 * process. The campaign service turns the same journal into a
 * *coordination substrate* for many processes: a daemon (doppd)
 * watches a spool directory for JSONL batches of serialized
 * RunConfigs, schedules them across a pool of worker processes, and
 * clients (doppctl, or any bench via DOPP_SPOOL) submit work and poll
 * status files — no sockets, no IPC beyond the filesystem.
 *
 * Layout under one spool root:
 *
 *   spool/<batch>.jsonl   submitted batches (atomic-rename submit);
 *                         one campaignConfigJson() line per config
 *   journal.jsonl         the shared run journal: one record per
 *                         fingerprint, a success or a permanent
 *                         failure; every append is flock'd
 *                         (AppendLog), so cross-process appends never
 *                         interleave
 *   claims/<fp>           flock-guarded claim records (see below)
 *   workers/<id>.json     per-worker heartbeats (atomic writes)
 *   status/<batch>.json   batch progress, status/daemon.json daemon
 *   results/<batch>.csv   written once when a batch completes
 *   control/stop|drain    client requests (empty files)
 *
 * Execution: a worker is one loop plus a heartbeat thread. Each pass
 * follows the journal, refreshes the status files, claims the first
 * fingerprint without a record that no live lease holds, and runs it
 * through the batch runner's attempt loop (runAttempts,
 * batch_runner.hh) with up to maxFailures attempts, retrying in place
 * while the heartbeat keeps the lease. A success or the last failed
 * attempt is journaled; a batch with a failed record finishes as
 * "failed". Parallelism is worker processes only. A stop lets the
 * attempt in flight finish, leaves everything else unrun and records
 * nothing for a config whose attempts it cut short.
 *
 * Claim/lease protocol — the crash-tolerance core. A worker takes a
 * config by writing {fp, worker, pid, expiresAtMs} into claims/<fp>
 * under flock(LOCK_EX); the flock brackets only the read-check-write,
 * never the run itself, so a SIGKILLed worker leaves no lock behind
 * (the kernel drops flocks with the process). Liveness comes from the
 * lease: a heartbeat thread renews expiresAtMs (CLOCK_MONOTONIC,
 * valid across processes on one machine) while the run executes, and
 * any worker finding an *expired* claim overwrites it and re-runs the
 * config. Exactly-once final records hold regardless of interleaving:
 * the journal append happens only inside ClaimStore::finalize, under
 * the claim flock, after (a) an ownership re-check (a reclaimer
 * overwrote the record => the stale holder appends nothing) and (b) a
 * journal-tail re-check (the fingerprint already completed => the
 * reclaimer of a *finished* claim appends nothing). Re-*execution*
 * after a reclaim race is possible; a duplicate *record* is not, and
 * by the determinism contract (§9) a re-run is bit-identical anyway.
 *
 * The results CSV a batch completion writes is reconstructed from
 * journal records in batch-file order; because journal round-trips
 * are bit-exact and writeResultsCsv's columns depend only on the
 * result set, it is byte-identical to a serial in-process run of the
 * same batch — the equivalence scripts/ci.sh enforces through a
 * SIGKILL mid-sweep.
 */

#ifndef DOPP_HARNESS_CAMPAIGN_SERVICE_HH
#define DOPP_HARNESS_CAMPAIGN_SERVICE_HH

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/journal.hh"

namespace dopp
{

// ---------------------------------------------------------------------
// Spool layout
// ---------------------------------------------------------------------

/** Path schema of one spool root (see the file comment). */
struct SpoolPaths
{
    std::string root;

    std::string spoolDir() const { return root + "/spool"; }
    std::string claimsDir() const { return root + "/claims"; }
    std::string workersDir() const { return root + "/workers"; }
    std::string statusDir() const { return root + "/status"; }
    std::string resultsDir() const { return root + "/results"; }
    std::string controlDir() const { return root + "/control"; }

    std::string journalPath() const { return root + "/journal.jsonl"; }
    std::string stopPath() const { return controlDir() + "/stop"; }
    std::string drainPath() const { return controlDir() + "/drain"; }

    std::string batchPath(const std::string &name) const
    {
        return spoolDir() + "/" + name + ".jsonl";
    }
    std::string batchStatusPath(const std::string &name) const
    {
        return statusDir() + "/" + name + ".json";
    }
    std::string daemonStatusPath() const
    {
        return statusDir() + "/daemon.json";
    }
    std::string batchResultsPath(const std::string &name) const
    {
        return resultsDir() + "/" + name + ".csv";
    }
    std::string workerStatusPath(const std::string &id) const
    {
        return workersDir() + "/" + id + ".json";
    }
};

/** Create every directory of the layout (mkdir -p semantics). */
void ensureSpoolLayout(const SpoolPaths &paths);

// ---------------------------------------------------------------------
// Config codec
// ---------------------------------------------------------------------

/**
 * Serialize @p cfg as one self-describing JSON line (with trailing
 * newline) carrying every fingerprint-relevant field plus the
 * fingerprint itself as a cross-check. Slice knobs are serialized
 * *resolved* (resolvedSliceConfig), so a submitting client's
 * DOPP_SLICES environment is baked into the batch instead of being
 * re-interpreted — differently — by the worker. The snapshot period
 * and analyses travel in a "snapshot" object only when the analysis
 * list is non-empty. Fatal for a config the journal cannot replay (a
 * trace capture; see configResumable) and for workload/organization
 * names no worker could build.
 */
std::string campaignConfigJson(const RunConfig &cfg);

/**
 * Parse one campaignConfigJson line. On success fills @p cfg and
 * @p fingerprint and returns true; on any malformation — including a
 * stored fingerprint that does not match the one recomputed from the
 * parsed fields (schema or environment skew between client and
 * worker), an unknown workload or snapshot analysis, or an
 * unregistered organization —
 * fills @p why and returns false. A worker never crashes on a bad
 * config line; the whole batch is rejected loudly instead.
 */
bool parseCampaignConfig(const std::string &line, RunConfig &cfg,
                         std::string &fingerprint, std::string &why);

/** One submitted batch: configs in file order (= results CSV row
 * order) with their fingerprints. */
struct CampaignBatch
{
    std::string name;
    std::vector<RunConfig> configs;
    std::vector<std::string> fingerprints;
};

/**
 * Load and validate the batch file at @p path. All-or-nothing: any
 * malformed line fails the whole load with @p why naming the line —
 * a batch that half-parses must not half-run.
 */
bool loadCampaignBatch(const std::string &path,
                       const std::string &name, CampaignBatch &out,
                       std::string &why);

/** Claim-file name for @p fingerprint: every byte outside
 * [A-Za-z0-9._@-] becomes '_' (collisions are benign: claim records
 * carry the full fingerprint and are checked against it). */
std::string sanitizeFingerprint(const std::string &fingerprint);

// ---------------------------------------------------------------------
// Claims
// ---------------------------------------------------------------------

/** Milliseconds on CLOCK_MONOTONIC — a machine-wide clock, so lease
 * expiries written by one process are meaningful in another. */
u64 monotonicMs();

/** One claim record (the whole contents of a claim file). */
struct ClaimInfo
{
    std::string fp;
    std::string worker;
    u64 pid = 0;
    u64 expiresAtMs = 0;
};

/** Serialize / parse a claim record (one JSON object, no newline).
 * The parse fails a record with a member it does not know, as the
 * journal and batch readers do. */
std::string claimRecordJson(const ClaimInfo &info);
bool parseClaimRecord(const std::string &text, ClaimInfo &out);

enum class ClaimResult
{
    Acquired, ///< fresh claim (file empty or lifecycle-complete)
    Reclaimed, ///< overwrote another worker's *expired* lease
    Busy, ///< live lease held elsewhere (or lock contention)
};

/**
 * Claim arbitration for one worker. Every mutation of a claim file
 * happens under its flock; the lock is held only for the short
 * read-check-write, never across a run.
 */
class ClaimStore
{
  public:
    ClaimStore(std::string claims_dir, std::string worker_id,
               u64 lease_ms)
        : dir(std::move(claims_dir)), worker(std::move(worker_id)),
          leaseMs(lease_ms)
    {
    }

    /** Try to take @p fp: acquires an unclaimed or lease-expired
     * claim, refuses a live foreign one. Uses a *non-blocking* flock —
     * a contended lock reports Busy rather than stalling the
     * worker, which moves on to the next fingerprint. */
    ClaimResult tryClaim(const std::string &fp);

    /** Extend the lease of @p fp if the claim is still ours.
     * @return false when lost (reclaimed by another worker). */
    bool renew(const std::string &fp);

    /**
     * Complete the lifecycle of @p fp: under the claim flock, verify
     * the claim is still ours, invoke @p appendRecord (the caller
     * re-checks the journal tail and appends the final record there —
     * both under this lock, which is what makes the record
     * exactly-once), then unlink the claim file.
     * @return false — nothing invoked — when the claim was lost.
     */
    bool finalize(const std::string &fp,
                  const std::function<void()> &appendRecord);

    /** Abandon @p fp after a failed attempt: unlink the claim file if
     * still ours so other workers retry immediately. */
    void release(const std::string &fp);

    const std::string &workerId() const { return worker; }

  private:
    std::string claimPath(const std::string &fp) const
    {
        return dir + "/" + sanitizeFingerprint(fp);
    }

    std::string dir;
    std::string worker;
    u64 leaseMs;
};

// ---------------------------------------------------------------------
// Worker / daemon
// ---------------------------------------------------------------------

struct CampaignServiceOptions
{
    std::string spoolRoot;

    /** Worker identity (claims, heartbeat file). Empty: derived as
     * "w0-<pid>". The daemon assigns "w<index>-<pid>", so a respawned
     * worker never collides with its dead predecessor's claims. */
    std::string workerId;

    /** Daemon only: worker *processes* to fork. 0 runs a single
     * worker in-process (no fork) — the mode tests exercise. */
    unsigned workers = 0;

    /** Claim lease length. A worker SIGKILLed mid-run is reclaimed at
     * most this long after its last heartbeat renewal. */
    u64 leaseMs = 4000;

    /** Lease-renewal / heartbeat period; must be well under
     * leaseMs or live claims would be stolen. */
    u64 heartbeatMs = 1000;

    /** Spool/journal scan period. */
    u64 scanMs = 200;

    /** Attempts before a fingerprint is permanently failed (at
     * least 1): the worker's runAttempts gets maxFailures - 1
     * retries. */
    unsigned maxFailures = 2;

    /** Exit once no batch has runnable work left (drain semantics
     * without the control file) — what doppd --oneshot and the tests
     * use. */
    bool exitWhenIdle = false;

    /** Hard wall-clock cap for a worker (0 = none); a safety net so a
     * wedged CI run dies bounded instead of hanging the suite. */
    u64 maxRuntimeMs = 0;

    /** External stop request (e.g. a SIGTERM handler's flag); polled
     * alongside control/stop. May be null. */
    const std::atomic<bool> *externalStop = nullptr;
};

/** What one worker did (for logs and tests). */
struct CampaignWorkerOutcome
{
    size_t runsCompleted = 0; ///< success records appended by us
    size_t runsFailed = 0;    ///< failed attempts (all configs)
    size_t claimsLost = 0;    ///< finalize found the claim stolen
    size_t reclaims = 0;      ///< expired leases we took over
    size_t duplicatesAvoided = 0; ///< finalize found fp already done
    bool stopRequested = false;
};

/**
 * Run one worker until stop/drain: a loop that claims and runs one
 * config per pass, plus a heartbeat thread that renews the lease in
 * flight and turns control/stop or @c externalStop into the stop flag
 * (which also cuts a retry backoff short). On stop, returns once the
 * attempt in flight finishes; SIGKILL is the *designed-for* exit path
 * — the claim the worker held is reclaimed by its peers via the lease
 * protocol. Fatal when maxFailures is 0.
 */
CampaignWorkerOutcome
runCampaignWorker(const CampaignServiceOptions &opts);

/**
 * Run the daemon: ensure the layout, clear stale control files, fork
 * @c workers children (each a runCampaignWorker), supervise them —
 * respawning dead workers with fresh identities, with a crash-loop
 * guard — and propagate SIGTERM. @return process exit code.
 */
int runCampaignDaemon(const CampaignServiceOptions &opts);

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/** Parsed status/<batch>.json. */
struct BatchStatus
{
    std::string name;
    size_t total = 0;
    size_t completed = 0;
    size_t failed = 0; ///< permanently failed fingerprints
    std::string state; ///< "running" | "complete" | "failed"
};

/** Read a batch status file. @return false when absent/unparsable
 * (the daemon has not scanned the batch yet). */
bool readBatchStatus(const SpoolPaths &paths, const std::string &name,
                     BatchStatus &out);

/**
 * Validate the batch file at @p file (every line must parse and
 * fingerprint-check) and submit it as spool/<name>.jsonl via
 * write-sibling-then-rename, so the daemon's scanner never observes a
 * half-copied batch. Fatal on an invalid file or a name collision.
 */
void submitCampaignBatch(const SpoolPaths &paths,
                         const std::string &file,
                         const std::string &name);

/** Poll until the batch reaches a terminal state or @p timeoutMs
 * passes. @return true with @p out filled on a terminal state. */
bool waitForBatch(const SpoolPaths &paths, const std::string &name,
                  u64 timeoutMs, BatchStatus &out);

/** Request a graceful drain / immediate stop (control files). */
void requestDrain(const SpoolPaths &paths);
void requestStop(const SpoolPaths &paths);

/**
 * Reconstruct @p batch's results from the shared journal, in batch
 * order, polling until every fingerprint has a record or @p timeoutMs
 * passes. Fatal on timeout or on a failed record (a permanently
 * failed fingerprint, named in the message) — exactly runCampaign's
 * contract, which is what lets a bench under DOPP_SPOOL return
 * daemon-executed results transparently.
 */
std::vector<RunResult>
awaitCampaignResults(const SpoolPaths &paths,
                     const CampaignBatch &batch, u64 timeoutMs);

} // namespace dopp

#endif // DOPP_HARNESS_CAMPAIGN_SERVICE_HH
