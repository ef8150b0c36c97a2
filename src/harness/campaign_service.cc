#include "campaign_service.hh"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "harness/batch_runner.hh"
#include "harness/llc_factory.hh"
#include "harness/results_io.hh"
#include "sim/slice_hash.hh"
#include "util/fileio.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

namespace dopp
{

namespace
{

constexpr u64 campaignSchemaVersion = 1;

void
sleepMs(u64 ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** Strip a ".jsonl" suffix: spool file name -> batch name. */
bool
batchNameOf(const std::string &file, std::string &name)
{
    const std::string suffix = ".jsonl";
    if (file.size() <= suffix.size() ||
        file.compare(file.size() - suffix.size(), suffix.size(),
                     suffix) != 0) {
        return false;
    }
    name = file.substr(0, file.size() - suffix.size());
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// Spool layout
// ---------------------------------------------------------------------

void
ensureSpoolLayout(const SpoolPaths &paths)
{
    makeDirs(paths.spoolDir());
    makeDirs(paths.claimsDir());
    makeDirs(paths.workersDir());
    makeDirs(paths.statusDir());
    makeDirs(paths.resultsDir());
    makeDirs(paths.controlDir());
}

// ---------------------------------------------------------------------
// Config codec
// ---------------------------------------------------------------------

namespace
{

bool
knownWorkload(const std::string &name)
{
    for (const std::string &w : workloadNames()) {
        if (w == name)
            return true;
    }
    return false;
}

using KeyList = std::vector<const char *>;

/** The keys each object of a line may carry: the top level first,
 * then each visited section and the slice section. */
std::vector<std::pair<std::string, KeyList>>
lineSchema()
{
    std::vector<std::pair<std::string, KeyList>> schema{
        {"", {"v", "fp", "workload", "organization", "memTier", "slice"}}};
    const RunConfig defaults;
    visitConfigFields(defaults, [&schema](const char *section,
                                          const char *key, const auto &) {
        if (schema.back().first != section) {
            schema.front().second.push_back(section);
            schema.emplace_back(section, KeyList{});
        }
        schema.back().second.push_back(key);
    });
    schema.push_back({"slice", {"count", "hash", "mapSpace"}});
    return schema;
}

KeyList
partitionKeys()
{
    KeyList keys;
    const MemPartitionProfile defaults;
    visitPartitionFields(defaults, [&keys](const char *key, const auto &) {
        keys.push_back(key);
    });
    return keys;
}

} // namespace

std::string
campaignConfigJson(const RunConfig &cfg)
{
    if (!configResumable(cfg)) {
        fatal("config '%s' carries observation hooks the journal "
              "cannot replay; it cannot be spooled to a daemon",
              cfg.workloadName.c_str());
    }
    if (cfg.workloadName.empty())
        fatal("cannot spool a config without a workload name");
    if (!knownWorkload(cfg.workloadName)) {
        fatal("cannot spool unknown workload '%s'",
              cfg.workloadName.c_str());
    }

    // Bake the submitting side's environment into the line: the
    // worker re-resolves from these explicit values alone, so its
    // fingerprint cannot drift from the client's.
    const SliceConfig sc = resolvedSliceConfig(cfg);

    std::string out;
    out.reserve(1024);
    out += "{\"v\":" + jsonFmtU64(campaignSchemaVersion);
    out += ",\"fp\":\"" + jsonEscape(configFingerprint(cfg)) + '"';
    out += ",\"workload\":\"" + jsonEscape(cfg.workloadName) + '"';
    out += ",\"organization\":\"" + jsonEscape(cfg.llcName) + '"';
    // Top-level fields inline, each section as a nested object.
    std::string open;
    visitConfigFields(cfg, [&](const char *section, const char *key,
                               const auto &field) {
        if (open != section) {
            if (!open.empty())
                out += '}';
            out += ",\"" + std::string(section) + "\":{";
            open = section;
        } else {
            out += ',';
        }
        appendMember(out, key, field);
    });
    if (!open.empty())
        out += '}';
    out += ",\"memTier\":[";
    for (size_t i = 0; i < cfg.memTier.partitions.size(); ++i) {
        if (i)
            out += ',';
        char sep = '{';
        visitPartitionFields(cfg.memTier.partitions[i],
                             [&](const char *key, const auto &field) {
                                 out += sep;
                                 sep = ',';
                                 appendMember(out, key, field);
                             });
        out += '}';
    }
    out += "],\"slice\":{\"count\":" + jsonFmtU64(sc.count);
    out += ",\"hash\":\"" + jsonEscape(sliceHashName(sc.hash)) + '"';
    out += ",\"mapSpace\":\"" +
           jsonEscape(mapSpaceModeName(sc.mapSpace)) + "\"}}\n";
    return out;
}

bool
parseCampaignConfig(const std::string &line, RunConfig &cfg,
                    std::string &fingerprint, std::string &why)
{
    auto fail = [&why](std::string reason) {
        why = std::move(reason);
        return false;
    };
    JsonValue root;
    if (!JsonParser(line).parse(root) ||
        root.kind != JsonValue::Kind::Object) {
        return fail("not a complete JSON object");
    }
    static const auto schema = lineSchema();
    for (const auto &[section, keys] : schema) {
        const JsonValue *obj =
            section.empty() ? &root : root.find(section);
        if (!obj || obj->kind != JsonValue::Kind::Object)
            return fail("missing or mistyped section '" + section + "'");
        if (!jsonKnownKeysOnly(*obj, keys, why))
            return false;
    }

    u64 version = 0;
    if (!readMember(root, "v", version) ||
        version != campaignSchemaVersion) {
        return fail("unknown schema version");
    }

    RunConfig c;
    std::string storedFp;
    if (!readMember(root, "fp", storedFp) ||
        !readMember(root, "workload", c.workloadName) ||
        !readMember(root, "organization", c.llcName)) {
        return fail("missing or mistyped required field");
    }
    if (!knownWorkload(c.workloadName))
        return fail("unknown workload '" + c.workloadName + "'");
    if (!llcRegistered(c.llcName))
        return fail("organization '" + c.llcName + "' is not registered");
    // The schema check above guarantees every section object exists.
    std::string bad;
    visitConfigFields(c, [&](const std::string &section,
                             const char *key, auto &field) {
        const JsonValue &obj = section.empty() ? root : *root.find(section);
        if (bad.empty() && !readMember(obj, key, field))
            bad = (section.empty() ? "" : section + ".") + key;
    });
    if (!bad.empty())
        return fail("missing, mistyped or out-of-range field '" + bad + "'");

    const JsonValue *memTier = root.find("memTier");
    if (!memTier || memTier->kind != JsonValue::Kind::Array)
        return fail("missing or mistyped memTier");
    static const KeyList partKeys = partitionKeys();
    for (const JsonValue &e : memTier->array) {
        if (e.kind != JsonValue::Kind::Object)
            return fail("malformed memTier partition");
        if (!jsonKnownKeysOnly(e, partKeys, why))
            return false;
        MemPartitionProfile p;
        bool ok = true;
        visitPartitionFields(p, [&](const char *key, auto &field) {
            ok = ok && readMember(e, key, field);
        });
        if (!ok)
            return fail("malformed memTier partition");
        c.memTier.partitions.push_back(std::move(p));
    }

    const JsonValue &slice = *root.find("slice");
    std::string mapSpace;
    if (!readMember(slice, "count", c.sliceCount) ||
        !readMember(slice, "hash", c.sliceHash) ||
        !readMember(slice, "mapSpace", mapSpace)) {
        return fail("malformed slice section");
    }
    if (mapSpace == mapSpaceModeName(MapSpaceMode::PerSlice))
        c.mapSpaceMode = MapSpaceMode::PerSlice;
    else if (mapSpace != mapSpaceModeName(MapSpaceMode::Shared))
        return fail("unknown map-space mode '" + mapSpace + "'");
    // A worker must reject a bad slice layout or LLC geometry, not die
    // on it in resolvedSliceConfig or an LLC constructor (and then be
    // respawned onto the same line, forever).
    SliceConfig sc{c.sliceCount, SliceHashKind::BitSelect,
                   c.mapSpaceMode};
    if (!c.sliceHash.empty() && !sliceHashTryParse(c.sliceHash, sc.hash))
        return fail("unknown slice hash '" + c.sliceHash + "'");
    if (std::string e = llcLayoutError(sc, c); !e.empty())
        return fail(std::move(e));

    // The decisive cross-check: the fingerprint recomputed from the
    // parsed fields must match the one the submitter stored. A
    // mismatch means schema or environment skew between client and
    // worker — running under the stored key would poison the journal.
    const std::string recomputed = configFingerprint(c);
    if (recomputed != storedFp) {
        return fail("fingerprint mismatch (stored " + storedFp +
                    ", recomputed " + recomputed +
                    "): client/worker schema or environment skew");
    }

    cfg = std::move(c);
    fingerprint = storedFp;
    return true;
}

bool
loadCampaignBatch(const std::string &path, const std::string &name,
                  CampaignBatch &out, std::string &why)
{
    std::string text;
    if (!readFileIfExists(path, text)) {
        why = "batch file does not exist";
        return false;
    }
    CampaignBatch batch;
    batch.name = name;
    size_t start = 0;
    u64 lineNo = 0;
    while (start < text.size()) {
        size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            nl = text.size();
        const std::string line = text.substr(start, nl - start);
        start = nl + 1;
        ++lineNo;
        if (line.empty())
            continue;
        RunConfig cfg;
        std::string fp, lineWhy;
        if (!parseCampaignConfig(line, cfg, fp, lineWhy)) {
            why = "line " + jsonFmtU64(lineNo) + ": " + lineWhy;
            return false;
        }
        batch.configs.push_back(std::move(cfg));
        batch.fingerprints.push_back(std::move(fp));
    }
    if (batch.configs.empty()) {
        why = "batch file holds no configs";
        return false;
    }
    out = std::move(batch);
    return true;
}

std::string
sanitizeFingerprint(const std::string &fingerprint)
{
    std::string out = fingerprint;
    for (char &c : out) {
        const bool ok = (c >= 'A' && c <= 'Z') ||
                        (c >= 'a' && c <= 'z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '@' || c == '-';
        if (!ok)
            c = '_';
    }
    return out;
}

// ---------------------------------------------------------------------
// Claims
// ---------------------------------------------------------------------

u64
monotonicMs()
{
    struct timespec ts;
    if (::clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
        fatal("clock_gettime(CLOCK_MONOTONIC) failed: %s",
              std::strerror(errno));
    return static_cast<u64>(ts.tv_sec) * 1000ULL +
           static_cast<u64>(ts.tv_nsec) / 1000000ULL;
}

std::string
claimRecordJson(const ClaimInfo &info)
{
    std::string out = "{\"fp\":\"" + jsonEscape(info.fp) + '"';
    out += ",\"worker\":\"" + jsonEscape(info.worker) + '"';
    out += ",\"pid\":" + jsonFmtU64(info.pid);
    out += ",\"expiresAtMs\":" + jsonFmtU64(info.expiresAtMs) + '}';
    return out;
}

bool
parseClaimRecord(const std::string &text, ClaimInfo &out)
{
    JsonValue root;
    if (!JsonParser(text).parse(root) ||
        root.kind != JsonValue::Kind::Object) {
        return false;
    }
    const JsonValue *fp = root.find("fp");
    const JsonValue *worker = root.find("worker");
    const JsonValue *pid = root.find("pid");
    const JsonValue *expires = root.find("expiresAtMs");
    if (!fp || fp->kind != JsonValue::Kind::String || !worker ||
        worker->kind != JsonValue::Kind::String || !pid ||
        !pid->asU64(out.pid) || !expires ||
        !expires->asU64(out.expiresAtMs)) {
        return false;
    }
    out.fp = fp->text;
    out.worker = worker->text;
    return true;
}

ClaimResult
ClaimStore::tryClaim(const std::string &fp)
{
    std::optional<FileLock> lock =
        FileLock::tryAcquire(claimPath(fp));
    if (!lock)
        return ClaimResult::Busy; // someone is mutating it right now

    const std::string text = lock->read();
    ClaimInfo existing;
    const bool held = !text.empty() &&
                      parseClaimRecord(text, existing) &&
                      existing.fp == fp;
    if (held && existing.worker != worker &&
        existing.expiresAtMs > monotonicMs()) {
        return ClaimResult::Busy; // live foreign lease
    }
    // Empty file (fresh or just-completed lifecycle), a corrupt
    // record, our own stale claim, or an expired foreign lease: take
    // it. Overwriting the record is what invalidates the previous
    // holder — its finalize will fail the ownership re-check.
    ClaimInfo mine;
    mine.fp = fp;
    mine.worker = worker;
    mine.pid = static_cast<u64>(::getpid());
    mine.expiresAtMs = monotonicMs() + leaseMs;
    lock->replace(claimRecordJson(mine));
    return held && existing.worker != worker
               ? ClaimResult::Reclaimed
               : ClaimResult::Acquired;
}

bool
ClaimStore::renew(const std::string &fp)
{
    FileLock lock = FileLock::acquire(claimPath(fp));
    ClaimInfo existing;
    if (!parseClaimRecord(lock.read(), existing) ||
        existing.fp != fp || existing.worker != worker) {
        return false; // lost to a reclaimer
    }
    existing.expiresAtMs = monotonicMs() + leaseMs;
    lock.replace(claimRecordJson(existing));
    return true;
}

bool
ClaimStore::finalize(const std::string &fp,
                     const std::function<void()> &appendRecord)
{
    FileLock lock = FileLock::acquire(claimPath(fp));
    ClaimInfo existing;
    if (!parseClaimRecord(lock.read(), existing) ||
        existing.fp != fp || existing.worker != worker) {
        return false; // reclaimed while we ran; the thief owns it now
    }
    appendRecord();
    lock.removeAndRelease();
    return true;
}

void
ClaimStore::release(const std::string &fp)
{
    FileLock lock = FileLock::acquire(claimPath(fp));
    ClaimInfo existing;
    if (parseClaimRecord(lock.read(), existing) &&
        existing.fp == fp && existing.worker == worker) {
        lock.removeAndRelease();
    }
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

namespace
{

/** Sanitize the process environment so a worker's fingerprints can
 * never drift from the submitted (pre-resolved) batch lines. */
void
scrubCampaignEnv()
{
    ::unsetenv("DOPP_SLICES");
    ::unsetenv("DOPP_SLICE_HASH");
}

/** What the worker loop shares with its heartbeat thread. */
struct WorkerState
{
    std::mutex mutex;
    std::condition_variable wake; ///< ends a heartbeat wait at exit
    std::string running;          ///< the lease to renew ("" if idle)
    CampaignWorkerOutcome outcome;
    bool exiting = false;

    std::atomic<bool> stop{false}; ///< finish the attempt and exit
};

std::string
workerStatusJson(const std::string &id, const WorkerState &state)
{
    std::string out = "{\"worker\":\"" + jsonEscape(id) + '"';
    out += ",\"pid\":" + jsonFmtU64(static_cast<u64>(::getpid()));
    out += ",\"updatedAtMs\":" + jsonFmtU64(monotonicMs());
    out += ",\"completed\":" + jsonFmtU64(state.outcome.runsCompleted);
    out += ",\"running\":[";
    if (!state.running.empty())
        out += '"' + jsonEscape(state.running) + '"';
    out += "]}\n";
    return out;
}

std::string
batchStatusJson(const BatchStatus &s)
{
    std::string out = "{\"batch\":\"" + jsonEscape(s.name) + '"';
    out += ",\"total\":" + jsonFmtU64(s.total);
    out += ",\"completed\":" + jsonFmtU64(s.completed);
    out += ",\"failed\":" + jsonFmtU64(s.failed);
    out += ",\"state\":\"" + jsonEscape(s.state) + "\"}\n";
    return out;
}

/** A fingerprint with no journal record and its config (both owned
 * by an ingested batch). */
struct PendingRun
{
    const std::string *fp;
    const RunConfig *cfg;
};

/**
 * One pass over the ingested batches: writes each status/<batch>.json
 * from the journal @p records when it differs from the one this
 * worker wrote last (@p statusWritten) and, when a batch turns
 * complete, its results/<batch>.csv.
 * @return every fingerprint that has no record yet, in batch order.
 */
std::vector<PendingRun>
refreshBatches(const SpoolPaths &paths, const std::string &id,
               const std::map<std::string, CampaignBatch> &batches,
               const std::unordered_map<std::string, RunResult> &records,
               std::map<std::string, std::string> &statusWritten)
{
    std::vector<PendingRun> pending;
    for (const auto &[name, batch] : batches) {
        BatchStatus st;
        st.name = name;
        st.total = batch.fingerprints.size();
        for (size_t i = 0; i < batch.fingerprints.size(); ++i) {
            // A fingerprint's record is its final state: a success
            // completes it, a failure fails it for good.
            const std::string &fp = batch.fingerprints[i];
            const auto rec = records.find(fp);
            if (rec == records.end())
                pending.push_back({&fp, &batch.configs[i]});
            else
                ++(rec->second.failed ? st.failed : st.completed);
        }
        st.state = st.completed + st.failed < st.total
                       ? "running"
                       : (st.failed ? "failed" : "complete");
        std::string json = batchStatusJson(st);
        if (json == statusWritten[name])
            continue;
        atomicWriteFile(paths.batchStatusPath(name), json);
        statusWritten[name] = std::move(json);
        if (st.state == "complete") {
            // Reconstruct in batch order from the journal —
            // byte-identical to a serial run by the bit-exact
            // round-trip (see the header comment).
            std::vector<RunResult> results;
            results.reserve(batch.fingerprints.size());
            for (const std::string &fp : batch.fingerprints)
                results.push_back(records.at(fp));
            writeResultsCsv(paths.batchResultsPath(name), results);
            inform("campaign worker %s: batch '%s' complete", id.c_str(),
                   name.c_str());
        }
    }
    return pending;
}

} // namespace

CampaignWorkerOutcome
runCampaignWorker(const CampaignServiceOptions &opts)
{
    scrubCampaignEnv();
    SpoolPaths paths{opts.spoolRoot};
    ensureSpoolLayout(paths);

    if (opts.maxFailures == 0)
        fatal("campaign worker: maxFailures must be at least 1");
    const std::string id = opts.workerId.empty()
                               ? "w0-" + std::to_string(::getpid())
                               : opts.workerId;
    ClaimStore claims(paths.claimsDir(), id, opts.leaseMs);
    RunJournal journal(paths.journalPath());
    WorkerState state;
    // A stop cancels a run before its first attempt or during a
    // backoff; an attempt in flight finishes.
    BatchOptions attempts;
    attempts.cancel = &state.stop;
    attempts.maxRetries = opts.maxFailures - 1;
    const u64 startedMs = monotonicMs();

    // Raise the stop flag on control/stop, the external flag or the
    // runtime cap. Both threads poll it.
    auto pollStop = [&] {
        const bool overdue = opts.maxRuntimeMs &&
                             monotonicMs() - startedMs > opts.maxRuntimeMs;
        if (overdue && !state.stop.load()) {
            warn("campaign worker %s: max runtime exceeded, stopping",
                 id.c_str());
        }
        if (overdue || pathExists(paths.stopPath()) ||
            (opts.externalStop && opts.externalStop->load())) {
            state.stop.store(true);
        }
        return state.stop.load();
    };

    // Heartbeat: poll the stop (the loop may be busy in a retry
    // backoff), renew the lease in flight and refresh
    // workers/<id>.json. Losing a renewal race is normal (lease
    // expired under load, a peer reclaimed) — the run keeps going;
    // finalize's ownership check settles who owns the record. It waits
    // on state.wake between beats, so the worker's exit never waits
    // out a period, and writes the status file once more on the way
    // out.
    std::thread heartbeat([&] {
        std::unique_lock<std::mutex> lock(state.mutex);
        for (;;) {
            pollStop();
            if (!state.running.empty())
                claims.renew(state.running);
            atomicWriteFile(paths.workerStatusPath(id),
                            workerStatusJson(id, state));
            if (state.exiting)
                return;
            state.wake.wait_for(lock,
                                std::chrono::milliseconds(opts.heartbeatMs),
                                [&] { return state.exiting; });
        }
    });

    std::map<std::string, CampaignBatch> batches;
    std::set<std::string> rejectedBatches;
    std::map<std::string, std::string> statusWritten;
    JournalTail tail(paths.journalPath());
    std::unordered_set<std::string> journaled;
    std::unordered_map<std::string, RunResult> records;
    bool draining = opts.exitWhenIdle;

    for (;;) {
        // Follow the journal, ingest new batches and bring the status
        // files up to date — also on the pass that ends the loop, so
        // they count the last run.
        tail.refresh(journaled, &records);
        for (const std::string &file : listDir(paths.spoolDir())) {
            std::string name;
            if (!batchNameOf(file, name) || batches.count(name) ||
                rejectedBatches.count(name)) {
                continue;
            }
            CampaignBatch batch;
            std::string why;
            if (!loadCampaignBatch(paths.batchPath(name), name, batch,
                                   why)) {
                warn("batch '%s' rejected: %s", name.c_str(),
                     why.c_str());
                rejectedBatches.insert(name);
                BatchStatus st;
                st.name = name;
                st.state = "failed";
                atomicWriteFile(paths.batchStatusPath(name),
                                batchStatusJson(st));
                continue;
            }
            inform("campaign worker %s: batch '%s' (%zu configs)",
                   id.c_str(), name.c_str(), batch.configs.size());
            batches.emplace(name, std::move(batch));
        }
        const std::vector<PendingRun> pending =
            refreshBatches(paths, id, batches, records, statusWritten);

        if (pathExists(paths.drainPath()))
            draining = true;
        // Draining: nothing left anywhere and no new work accepted.
        if (pollStop() || (draining && pending.empty()))
            break;

        // Claim the first fingerprint no live lease holds; a Busy one
        // is left for a later pass.
        const PendingRun *next = nullptr;
        ClaimResult claim = ClaimResult::Busy;
        for (const PendingRun &p : pending) {
            claim = claims.tryClaim(*p.fp);
            if (claim != ClaimResult::Busy) {
                next = &p;
                break;
            }
        }
        if (!next) {
            sleepMs(opts.scanMs);
            continue;
        }

        const std::string &fp = *next->fp;
        {
            std::lock_guard<std::mutex> lock(state.mutex);
            state.running = fp;
            if (claim == ClaimResult::Reclaimed)
                ++state.outcome.reclaims;
        }
        AttemptCounts counts;
        const RunResult result =
            runAttempts(*next->cfg, fp, attempts, counts);
        {
            // No renewal follows, so none can race the finalize or
            // release below.
            std::lock_guard<std::mutex> lock(state.mutex);
            state.running.clear();
            state.outcome.runsFailed +=
                counts.executed - (result.failed ? 0 : 1);
        }

        // A success, or a failure after every attempt, is the
        // fingerprint's one record. A stop cut the attempts short
        // otherwise: record nothing and let the next life retry.
        if (result.failed && counts.executed <= attempts.maxRetries) {
            claims.release(fp);
            continue;
        }
        if (result.failed) {
            warn("campaign worker %s: '%s' permanently failed: %s",
                 id.c_str(), fp.c_str(), result.error.c_str());
        }
        bool appended = false;
        const bool owned = claims.finalize(fp, [&] {
            // Under the claim flock: anything already journaled for
            // this fingerprint (a finished claim we reclaimed after
            // its completion, a prior life of this batch) wins — the
            // re-run was redundant but harmless, the *record* stays
            // exactly-once.
            tail.refresh(journaled, &records);
            if (!journaled.count(fp)) {
                journal.append(fp, result);
                appended = true;
            }
        });
        std::lock_guard<std::mutex> lock(state.mutex);
        if (!owned)
            ++state.outcome.claimsLost;
        else if (!appended)
            ++state.outcome.duplicatesAvoided;
        else if (!result.failed)
            ++state.outcome.runsCompleted;
    }

    {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.exiting = true;
    }
    state.wake.notify_all();
    heartbeat.join();
    CampaignWorkerOutcome outcome = state.outcome;
    outcome.stopRequested = state.stop.load();
    return outcome;
}

// ---------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------

namespace
{

std::atomic<bool> daemonStopFlag{false};

void
daemonSignalHandler(int)
{
    daemonStopFlag.store(true);
}

struct ChildWorker
{
    pid_t pid = 0;
    unsigned index = 0;
    u64 spawnedAtMs = 0;
};

pid_t
spawnWorker(const CampaignServiceOptions &opts, unsigned index)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        // Child: plain worker, dying on SIGTERM after current runs.
        CampaignServiceOptions child = opts;
        child.workerId = "w" + std::to_string(index) + "-" +
                         std::to_string(::getpid());
        child.externalStop = &daemonStopFlag;
        std::signal(SIGTERM, daemonSignalHandler);
        std::signal(SIGINT, SIG_IGN); // the parent coordinates stop
        runCampaignWorker(child);
        std::_Exit(0);
    }
    return pid;
}

std::string
daemonStatusJson(const std::vector<ChildWorker> &children,
                 const std::string &stateName)
{
    std::string out =
        "{\"pid\":" + jsonFmtU64(static_cast<u64>(::getpid()));
    out += ",\"state\":\"" + jsonEscape(stateName) + '"';
    out += ",\"workers\":[";
    bool first = true;
    for (const ChildWorker &c : children) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"index\":" + jsonFmtU64(c.index);
        out += ",\"pid\":" + jsonFmtU64(static_cast<u64>(c.pid)) +
               '}';
    }
    out += "]}\n";
    return out;
}

} // namespace

int
runCampaignDaemon(const CampaignServiceOptions &opts)
{
    scrubCampaignEnv();
    SpoolPaths paths{opts.spoolRoot};
    ensureSpoolLayout(paths);
    // Stale control files from a previous life must not kill the new
    // daemon on arrival.
    removeFile(paths.stopPath());
    removeFile(paths.drainPath());

    if (opts.workers == 0) {
        // In-process single worker (tests, debugging).
        CampaignServiceOptions solo = opts;
        solo.externalStop = &daemonStopFlag;
        std::signal(SIGTERM, daemonSignalHandler);
        std::signal(SIGINT, daemonSignalHandler);
        atomicWriteFile(paths.daemonStatusPath(),
                        daemonStatusJson({}, "running"));
        runCampaignWorker(solo);
        atomicWriteFile(paths.daemonStatusPath(),
                        daemonStatusJson({}, "exited"));
        return 0;
    }

    std::signal(SIGTERM, daemonSignalHandler);
    std::signal(SIGINT, daemonSignalHandler);

    std::vector<ChildWorker> children;
    unsigned nextIndex = 0;
    for (unsigned i = 0; i < opts.workers; ++i) {
        ChildWorker c;
        c.index = nextIndex++;
        c.spawnedAtMs = monotonicMs();
        c.pid = spawnWorker(opts, c.index);
        children.push_back(c);
    }
    atomicWriteFile(paths.daemonStatusPath(),
                    daemonStatusJson(children, "running"));
    inform("doppd: %zu workers on spool '%s'", children.size(),
           opts.spoolRoot.c_str());

    // Crash-loop guard: a worker dying within crashLoopWindowMs of
    // its spawn, crashLoopLimit times in a row, stops being respawned
    // — a poisoned environment would otherwise fork forever.
    constexpr u64 crashLoopWindowMs = 2000;
    constexpr unsigned crashLoopLimit = 5;
    unsigned fastDeaths = 0;
    bool stopping = false;
    int exitCode = 0;

    while (!children.empty()) {
        if (daemonStopFlag.load() && !stopping) {
            stopping = true;
            inform("doppd: stop requested, signalling workers");
            for (const ChildWorker &c : children)
                ::kill(c.pid, SIGTERM);
            atomicWriteFile(paths.daemonStatusPath(),
                            daemonStatusJson(children, "stopping"));
        }

        int status = 0;
        const pid_t dead = ::waitpid(-1, &status, WNOHANG);
        if (dead < 0 && errno != EINTR && errno != ECHILD)
            fatal("waitpid failed: %s", std::strerror(errno));
        if (dead <= 0) {
            sleepMs(100);
            continue;
        }

        auto it = children.begin();
        while (it != children.end() && it->pid != dead)
            ++it;
        if (it == children.end())
            continue; // not ours (should not happen)

        const bool clean = WIFEXITED(status) &&
                           WEXITSTATUS(status) == 0;
        const bool fast =
            monotonicMs() - it->spawnedAtMs < crashLoopWindowMs;
        const unsigned index = it->index;
        children.erase(it);

        if (stopping)
            continue; // drain the reaps, no respawn
        if (clean) {
            // A worker only exits cleanly when draining/idle; once
            // one is done there is no work left, so let the rest
            // finish rather than respawn.
            continue;
        }

        fastDeaths = fast ? fastDeaths + 1 : 0;
        if (fastDeaths >= crashLoopLimit) {
            warn("doppd: workers crash-looping; not respawning");
            exitCode = 1;
            daemonStopFlag.store(true);
            continue;
        }
        warn("doppd: worker %u (pid %d) died; respawning", index,
             static_cast<int>(dead));
        ChildWorker c;
        c.index = nextIndex++;
        c.spawnedAtMs = monotonicMs();
        c.pid = spawnWorker(opts, c.index);
        children.push_back(c);
        atomicWriteFile(paths.daemonStatusPath(),
                        daemonStatusJson(children, "running"));
    }

    atomicWriteFile(paths.daemonStatusPath(),
                    daemonStatusJson({}, "exited"));
    inform("doppd: all workers exited");
    return exitCode;
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

bool
readBatchStatus(const SpoolPaths &paths, const std::string &name,
                BatchStatus &out)
{
    std::string text;
    if (!readFileIfExists(paths.batchStatusPath(name), text))
        return false;
    JsonValue root;
    if (!JsonParser(text).parse(root) ||
        root.kind != JsonValue::Kind::Object) {
        return false;
    }
    const JsonValue *batch = root.find("batch");
    const JsonValue *stateV = root.find("state");
    const JsonValue *total = root.find("total");
    const JsonValue *completed = root.find("completed");
    const JsonValue *failed = root.find("failed");
    u64 t = 0, c = 0, f = 0;
    if (!batch || batch->kind != JsonValue::Kind::String || !stateV ||
        stateV->kind != JsonValue::Kind::String || !total ||
        !total->asU64(t) || !completed || !completed->asU64(c) ||
        !failed || !failed->asU64(f)) {
        return false;
    }
    out.name = batch->text;
    out.state = stateV->text;
    out.total = t;
    out.completed = c;
    out.failed = f;
    return true;
}

void
submitCampaignBatch(const SpoolPaths &paths, const std::string &file,
                    const std::string &name)
{
    CampaignBatch batch;
    std::string why;
    if (!loadCampaignBatch(file, name, batch, why))
        fatal("batch '%s' invalid: %s", file.c_str(), why.c_str());
    ensureSpoolLayout(paths);
    const std::string target = paths.batchPath(name);
    if (pathExists(target))
        fatal("batch '%s' already submitted", name.c_str());
    std::string text;
    readFileIfExists(file, text);
    // atomicWriteFile = sibling temp + rename: the daemon's scanner
    // sees either no batch or the whole batch, never a prefix.
    atomicWriteFile(target, text);
}

bool
waitForBatch(const SpoolPaths &paths, const std::string &name,
             u64 timeoutMs, BatchStatus &out)
{
    const u64 deadline = monotonicMs() + timeoutMs;
    for (;;) {
        BatchStatus st;
        if (readBatchStatus(paths, name, st) &&
            (st.state == "complete" || st.state == "failed")) {
            out = st;
            return true;
        }
        if (monotonicMs() >= deadline)
            return false;
        sleepMs(100);
    }
}

void
requestDrain(const SpoolPaths &paths)
{
    ensureSpoolLayout(paths);
    atomicWriteFile(paths.drainPath(), "");
}

void
requestStop(const SpoolPaths &paths)
{
    ensureSpoolLayout(paths);
    atomicWriteFile(paths.stopPath(), "");
}

std::vector<RunResult>
awaitCampaignResults(const SpoolPaths &paths,
                     const CampaignBatch &batch, u64 timeoutMs)
{
    JournalTail tail(paths.journalPath());
    std::unordered_set<std::string> journaled;
    std::unordered_map<std::string, RunResult> records;

    const u64 deadline = monotonicMs() + timeoutMs;
    for (;;) {
        tail.refresh(journaled, &records);
        bool allDone = true;
        for (const std::string &fp : batch.fingerprints) {
            const auto rec = records.find(fp);
            if (rec == records.end()) {
                allDone = false;
            } else if (rec->second.failed) {
                fatal("campaign config '%s' permanently failed in "
                      "the service: %s",
                      fp.c_str(), rec->second.error.c_str());
            }
        }
        if (allDone)
            break;
        if (monotonicMs() >= deadline) {
            fatal("timed out after %llu ms waiting for batch '%s' "
                  "on spool '%s' (is doppd running?)",
                  static_cast<unsigned long long>(timeoutMs),
                  batch.name.c_str(), paths.root.c_str());
        }
        sleepMs(100);
    }

    std::vector<RunResult> results;
    results.reserve(batch.fingerprints.size());
    for (const std::string &fp : batch.fingerprints)
        results.push_back(records.at(fp));
    return results;
}

} // namespace dopp
