#include "campaign_service.hh"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
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

/** Map an organization name back onto LlcKind/llcName. @return false
 * for a name no LLC factory builder answers to. */
bool
resolveOrganization(const std::string &org, RunConfig &cfg,
                    std::string &why)
{
    static const LlcKind kinds[] = {
        LlcKind::Baseline, LlcKind::SplitDopp, LlcKind::UniDopp,
        LlcKind::Dedup,    LlcKind::Bdi,
    };
    for (LlcKind k : kinds) {
        if (org == llcKindName(k)) {
            cfg.kind = k;
            cfg.llcName.clear();
            return true;
        }
    }
    for (const std::string &name : registeredLlcNames()) {
        if (org == name) {
            cfg.llcName = org;
            return true;
        }
    }
    why = "organization '" + org + "' is not registered";
    return false;
}

bool
knownWorkload(const std::string &name)
{
    for (const std::string &w : workloadNames()) {
        if (w == name)
            return true;
    }
    return false;
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

    const std::string org =
        cfg.llcName.empty() ? llcKindName(cfg.kind) : cfg.llcName;
    // Bake the submitting side's environment into the line: the
    // worker re-resolves from these explicit values alone, so its
    // fingerprint cannot drift from the client's.
    const SliceConfig sc = resolvedSliceConfig(cfg);

    std::string out;
    out.reserve(1024);
    out += "{\"v\":" + jsonFmtU64(campaignSchemaVersion);
    out += ",\"fp\":\"" + jsonEscape(configFingerprint(cfg)) + '"';
    out += ",\"workload\":\"" + jsonEscape(cfg.workloadName) + '"';
    out += ",\"organization\":\"" + jsonEscape(org) + '"';
    out += ",\"mapBits\":" + jsonFmtU64(cfg.mapBits);
    out += ",\"dataFraction\":" + jsonFmtDouble(cfg.dataFraction);
    out += ",\"hashMode\":" +
           jsonFmtU64(static_cast<u64>(cfg.hashMode));
    out += ",\"hashDataSetIndex\":" +
           jsonFmtU64(cfg.hashDataSetIndex ? 1 : 0);
    out += ",\"dataPolicy\":" +
           jsonFmtU64(static_cast<u64>(cfg.dataPolicy));
    out += ",\"tagCountAwareData\":" +
           jsonFmtU64(cfg.tagCountAwareData ? 1 : 0);
    out += ",\"scale\":" + jsonFmtDouble(cfg.workload.scale);
    out += ",\"seed\":" + jsonFmtU64(cfg.workload.seed);
    out += ",\"perUseRanges\":" +
           jsonFmtU64(cfg.workload.perUseRanges ? 1 : 0);
    out += ",\"baselineBytes\":" + jsonFmtU64(cfg.baselineBytes);
    out += ",\"llcWays\":" + jsonFmtU64(cfg.llcWays);
    out += ",\"llcLatency\":" + jsonFmtU64(cfg.llcLatency);
    out += ",\"fault\":{\"seed\":" + jsonFmtU64(cfg.fault.seed);
    out += ",\"memoryRate\":" + jsonFmtDouble(cfg.fault.memoryRate);
    out += ",\"dataRate\":" + jsonFmtDouble(cfg.fault.dataRate);
    out += ",\"tagMetaRate\":" + jsonFmtDouble(cfg.fault.tagMetaRate);
    out += ",\"mtagMetaRate\":" +
           jsonFmtDouble(cfg.fault.mtagMetaRate) + '}';
    out += ",\"qor\":{\"budget\":" + jsonFmtDouble(cfg.qor.budget);
    out += ",\"reenableFraction\":" +
           jsonFmtDouble(cfg.qor.reenableFraction);
    out += ",\"window\":" + jsonFmtU64(cfg.qor.window);
    out += ",\"minDwell\":" + jsonFmtU64(cfg.qor.minDwell);
    out += ",\"migrateFactor\":" +
           jsonFmtDouble(cfg.qor.migrateFactor);
    out += ",\"migrateDwell\":" + jsonFmtU64(cfg.qor.migrateDwell) +
           '}';
    out += ",\"memTier\":[";
    for (size_t i = 0; i < cfg.memTier.partitions.size(); ++i) {
        const MemPartitionProfile &p = cfg.memTier.partitions[i];
        if (i)
            out += ',';
        out += "{\"kind\":" + jsonFmtU64(static_cast<u64>(p.kind));
        out += ",\"name\":\"" + jsonEscape(p.name) + '"';
        out += ",\"bitErrorRate\":" + jsonFmtDouble(p.bitErrorRate);
        out += ",\"refreshFaultRate\":" +
               jsonFmtDouble(p.refreshFaultRate);
        out += ",\"refreshIntervalAccesses\":" +
               jsonFmtU64(p.refreshIntervalAccesses);
        out += ",\"readLatency\":" + jsonFmtU64(p.readLatency);
        out += ",\"writeLatency\":" + jsonFmtU64(p.writeLatency);
        out += ",\"writeBufferDepth\":" +
               jsonFmtU64(p.writeBufferDepth);
        out += ",\"bufferedWriteLatency\":" +
               jsonFmtU64(p.bufferedWriteLatency);
        out += ",\"readEnergyPj\":" + jsonFmtDouble(p.readEnergyPj);
        out += ",\"writeEnergyPj\":" + jsonFmtDouble(p.writeEnergyPj);
        out += ",\"standbyPowerMw\":" +
               jsonFmtDouble(p.standbyPowerMw) + '}';
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
    JsonValue root;
    if (!JsonParser(line).parse(root) ||
        root.kind != JsonValue::Kind::Object) {
        why = "not a complete JSON object";
        return false;
    }
    if (!jsonKnownKeysOnly(
            root,
            {"v", "fp", "workload", "organization", "mapBits",
             "dataFraction", "hashMode", "hashDataSetIndex",
             "dataPolicy", "tagCountAwareData", "scale", "seed",
             "perUseRanges", "baselineBytes", "llcWays", "llcLatency",
             "fault", "qor", "memTier", "slice"},
            why)) {
        return false;
    }

    auto str = [&root](const char *key, std::string &out) {
        const JsonValue *v = root.find(key);
        if (!v || v->kind != JsonValue::Kind::String)
            return false;
        out = v->text;
        return true;
    };
    auto num = [](const JsonValue *obj, const char *key, u64 &out) {
        const JsonValue *v = obj->find(key);
        return v && v->asU64(out);
    };
    auto real = [](const JsonValue *obj, const char *key,
                   double &out) {
        const JsonValue *v = obj->find(key);
        return v && v->asDouble(out);
    };

    u64 version = 0;
    if (!num(&root, "v", version) ||
        version != campaignSchemaVersion) {
        why = "unknown schema version";
        return false;
    }

    RunConfig c;
    std::string storedFp, org;
    u64 mapBits = 0, hashMode = 0, hashDataSetIndex = 0;
    u64 dataPolicy = 0, tagCountAware = 0, seed = 0, perUse = 0;
    u64 baselineBytes = 0, llcWays = 0, llcLatency = 0;
    if (!str("fp", storedFp) || !str("workload", c.workloadName) ||
        !str("organization", org) || !num(&root, "mapBits", mapBits) ||
        !real(&root, "dataFraction", c.dataFraction) ||
        !num(&root, "hashMode", hashMode) ||
        !num(&root, "hashDataSetIndex", hashDataSetIndex) ||
        !num(&root, "dataPolicy", dataPolicy) ||
        !num(&root, "tagCountAwareData", tagCountAware) ||
        !real(&root, "scale", c.workload.scale) ||
        !num(&root, "seed", seed) ||
        !num(&root, "perUseRanges", perUse) ||
        !num(&root, "baselineBytes", baselineBytes) ||
        !num(&root, "llcWays", llcWays) ||
        !num(&root, "llcLatency", llcLatency)) {
        why = "missing or mistyped required field";
        return false;
    }
    if (!knownWorkload(c.workloadName)) {
        why = "unknown workload '" + c.workloadName + "'";
        return false;
    }
    if (!resolveOrganization(org, c, why))
        return false;
    if (hashMode > 2 || dataPolicy > 2) {
        why = "enum value out of range";
        return false;
    }
    c.mapBits = static_cast<unsigned>(mapBits);
    c.hashMode = static_cast<MapHashMode>(hashMode);
    c.hashDataSetIndex = hashDataSetIndex != 0;
    c.dataPolicy = static_cast<ReplPolicy>(dataPolicy);
    c.tagCountAwareData = tagCountAware != 0;
    c.workload.seed = seed;
    c.workload.perUseRanges = perUse != 0;
    c.baselineBytes = baselineBytes;
    c.llcWays = static_cast<u32>(llcWays);
    c.llcLatency = llcLatency;

    const JsonValue *fault = root.find("fault");
    const JsonValue *qor = root.find("qor");
    const JsonValue *memTier = root.find("memTier");
    const JsonValue *slice = root.find("slice");
    if (!fault || fault->kind != JsonValue::Kind::Object || !qor ||
        qor->kind != JsonValue::Kind::Object || !memTier ||
        memTier->kind != JsonValue::Kind::Array || !slice ||
        slice->kind != JsonValue::Kind::Object) {
        why = "missing or mistyped required section";
        return false;
    }
    if (!jsonKnownKeysOnly(*fault,
                           {"seed", "memoryRate", "dataRate",
                            "tagMetaRate", "mtagMetaRate"},
                           why) ||
        !num(fault, "seed", c.fault.seed) ||
        !real(fault, "memoryRate", c.fault.memoryRate) ||
        !real(fault, "dataRate", c.fault.dataRate) ||
        !real(fault, "tagMetaRate", c.fault.tagMetaRate) ||
        !real(fault, "mtagMetaRate", c.fault.mtagMetaRate)) {
        if (why.empty())
            why = "malformed fault section";
        return false;
    }
    if (!jsonKnownKeysOnly(*qor,
                           {"budget", "reenableFraction", "window",
                            "minDwell", "migrateFactor",
                            "migrateDwell"},
                           why) ||
        !real(qor, "budget", c.qor.budget) ||
        !real(qor, "reenableFraction", c.qor.reenableFraction) ||
        !num(qor, "window", c.qor.window) ||
        !num(qor, "minDwell", c.qor.minDwell) ||
        !real(qor, "migrateFactor", c.qor.migrateFactor) ||
        !num(qor, "migrateDwell", c.qor.migrateDwell)) {
        if (why.empty())
            why = "malformed qor section";
        return false;
    }
    for (const JsonValue &e : memTier->array) {
        if (e.kind != JsonValue::Kind::Object ||
            !jsonKnownKeysOnly(
                e,
                {"kind", "name", "bitErrorRate", "refreshFaultRate",
                 "refreshIntervalAccesses", "readLatency",
                 "writeLatency", "writeBufferDepth",
                 "bufferedWriteLatency", "readEnergyPj",
                 "writeEnergyPj", "standbyPowerMw"},
                why)) {
            if (why.empty())
                why = "malformed memTier partition";
            return false;
        }
        MemPartitionProfile p;
        u64 kind = 0, refreshInterval = 0, readLat = 0, writeLat = 0;
        u64 bufDepth = 0, bufLat = 0;
        const JsonValue *name = e.find("name");
        if (!name || name->kind != JsonValue::Kind::String ||
            !num(&e, "kind", kind) || kind > 2 ||
            !real(&e, "bitErrorRate", p.bitErrorRate) ||
            !real(&e, "refreshFaultRate", p.refreshFaultRate) ||
            !num(&e, "refreshIntervalAccesses", refreshInterval) ||
            !num(&e, "readLatency", readLat) ||
            !num(&e, "writeLatency", writeLat) ||
            !num(&e, "writeBufferDepth", bufDepth) ||
            !num(&e, "bufferedWriteLatency", bufLat) ||
            !real(&e, "readEnergyPj", p.readEnergyPj) ||
            !real(&e, "writeEnergyPj", p.writeEnergyPj) ||
            !real(&e, "standbyPowerMw", p.standbyPowerMw)) {
            why = "malformed memTier partition";
            return false;
        }
        p.kind = static_cast<MemPartitionKind>(kind);
        p.name = name->text;
        p.refreshIntervalAccesses = refreshInterval;
        p.readLatency = readLat;
        p.writeLatency = writeLat;
        p.writeBufferDepth = static_cast<u32>(bufDepth);
        p.bufferedWriteLatency = bufLat;
        c.memTier.partitions.push_back(std::move(p));
    }
    u64 sliceCount = 0;
    std::string sliceHash, mapSpace;
    const JsonValue *sh = slice->find("hash");
    const JsonValue *ms = slice->find("mapSpace");
    if (!jsonKnownKeysOnly(*slice, {"count", "hash", "mapSpace"},
                           why) ||
        !num(slice, "count", sliceCount) || !sh ||
        sh->kind != JsonValue::Kind::String || !ms ||
        ms->kind != JsonValue::Kind::String) {
        if (why.empty())
            why = "malformed slice section";
        return false;
    }
    c.sliceCount = static_cast<u32>(sliceCount);
    c.sliceHash = sh->text;
    if (ms->text == mapSpaceModeName(MapSpaceMode::Shared)) {
        c.mapSpaceMode = MapSpaceMode::Shared;
    } else if (ms->text ==
               mapSpaceModeName(MapSpaceMode::PerSlice)) {
        c.mapSpaceMode = MapSpaceMode::PerSlice;
    } else {
        why = "unknown map-space mode '" + ms->text + "'";
        return false;
    }
    // A worker must reject a bad slice layout, not die on it in
    // resolvedSliceConfig (and then be respawned onto the same line,
    // forever).
    SliceConfig sc{c.sliceCount, SliceHashKind::BitSelect,
                   c.mapSpaceMode};
    if (!c.sliceHash.empty() && !sliceHashTryParse(c.sliceHash, sc.hash)) {
        why = "unknown slice hash '" + c.sliceHash + "'";
        return false;
    }
    why = sliceConfigError(sc, c);
    if (!why.empty())
        return false;

    // The decisive cross-check: the fingerprint recomputed from the
    // parsed fields must match the one the submitter stored. A
    // mismatch means schema or environment skew between client and
    // worker — running under the stored key would poison the journal.
    const std::string recomputed = configFingerprint(c);
    if (recomputed != storedFp) {
        why = "fingerprint mismatch (stored " + storedFp +
              ", recomputed " + recomputed +
              "): client/worker schema or environment skew";
        return false;
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
// Failure records
// ---------------------------------------------------------------------

namespace
{

/** Incremental reader of failures.jsonl, mirroring JournalTail. */
class FailureTail
{
  public:
    explicit FailureTail(std::string path) : filePath(std::move(path))
    {
    }

    /** Fold newly appended failure records into @p counts. */
    void
    refresh(std::unordered_map<std::string, unsigned> &counts)
    {
        std::string text;
        if (!readFileIfExists(filePath, text))
            return;
        if (text.size() <= offset)
            return;
        pending.append(text, offset, text.size() - offset);
        offset = text.size();
        size_t start = 0;
        for (;;) {
            const size_t nl = pending.find('\n', start);
            if (nl == std::string::npos)
                break;
            const std::string line =
                pending.substr(start, nl - start);
            start = nl + 1;
            if (line.empty())
                continue;
            JsonValue root;
            const JsonValue *fp = nullptr;
            if (JsonParser(line).parse(root) &&
                root.kind == JsonValue::Kind::Object &&
                (fp = root.find("fp")) &&
                fp->kind == JsonValue::Kind::String) {
                ++counts[fp->text];
            } else {
                warn("failures '%s': unparsable record ignored",
                     filePath.c_str());
            }
        }
        pending.erase(0, start);
    }

  private:
    std::string filePath;
    size_t offset = 0;
    std::string pending;
};

std::string
failureRecordJson(const std::string &fp, const std::string &worker,
                  const std::string &error)
{
    return "{\"fp\":\"" + jsonEscape(fp) + "\",\"worker\":\"" +
           jsonEscape(worker) + "\",\"error\":\"" +
           jsonEscape(error) + "\"}\n";
}

} // namespace

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

struct WorkerJob
{
    std::string fp;
    RunConfig cfg;
};

/** Shared state between the scan loop, the executors and the
 * heartbeat thread of one worker process. */
struct WorkerState
{
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<WorkerJob> queue;
    std::unordered_set<std::string> inFlight; ///< queued or running
    std::unordered_set<std::string> running;  ///< leases to renew
    std::unordered_map<std::string, unsigned> failureCounts;
    CampaignWorkerOutcome outcome;
    bool done = false; ///< no more jobs will arrive; executors exit

    std::atomic<bool> stop{false}; ///< finish current runs and exit
};

/** Everything the executors need that outlives a single scan. */
struct WorkerContext
{
    WorkerContext(const SpoolPaths &paths,
                  const CampaignServiceOptions &opts)
        : claims(paths.claimsDir(),
                 opts.workerId.empty()
                     ? "w0-" + std::to_string(::getpid())
                     : opts.workerId,
                 opts.leaseMs),
          journal(AppendLog::openExclusive(paths.journalPath())),
          failures(AppendLog::openExclusive(paths.failuresPath())),
          finalizeTail(paths.journalPath()), maxFailures(opts.maxFailures)
    {
    }

    ClaimStore claims;

    std::mutex journalMutex; ///< serializes our threads' appends
    AppendLog journal;
    std::mutex failuresMutex;
    AppendLog failures;

    /** Finalize-side journal view, refreshed *under the claim flock*
     * right before an append — the authoritative duplicate check. */
    std::mutex finalizeMutex;
    JournalTail finalizeTail;
    std::unordered_set<std::string> finalized;

    unsigned maxFailures;
};

/** One claim->run->finalize attempt. */
void
executeJob(WorkerContext &ctx, WorkerState &state,
           const WorkerJob &job)
{
    const ClaimResult claim = ctx.claims.tryClaim(job.fp);
    if (claim == ClaimResult::Busy) {
        // Someone else holds a live lease. Drop the job — and take
        // it out of inFlight, or the scan loop would never requeue
        // it and an expired foreign lease could wait forever.
        std::lock_guard<std::mutex> lock(state.mutex);
        state.inFlight.erase(job.fp);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(state.mutex);
        if (claim == ClaimResult::Reclaimed)
            ++state.outcome.reclaims;
        state.running.insert(job.fp);
    }

    RunResult result;
    std::string error;
    bool ok = true;
    try {
        result = runWorkload(job.cfg);
        ok = !result.failed;
        if (!ok)
            error = result.error;
    } catch (const std::exception &e) {
        ok = false;
        error = e.what();
    } catch (...) {
        ok = false;
        error = "unknown exception";
    }

    if (ok) {
        bool appended = false;
        const bool owned = ctx.claims.finalize(job.fp, [&] {
            // Under the claim flock: anything already journaled for
            // this fingerprint (a finished claim we reclaimed after
            // its completion, a prior life of this batch) wins — the
            // re-run was redundant but harmless, the *record* stays
            // exactly-once.
            std::lock_guard<std::mutex> lock(ctx.finalizeMutex);
            ctx.finalizeTail.refresh(ctx.finalized);
            if (!ctx.finalized.count(job.fp)) {
                const std::string record =
                    journalRecordJson(job.fp, result);
                std::lock_guard<std::mutex> jl(ctx.journalMutex);
                ctx.journal.append(record);
                ctx.finalized.insert(job.fp);
                appended = true;
            }
        });
        std::lock_guard<std::mutex> lock(state.mutex);
        if (!owned)
            ++state.outcome.claimsLost;
        else if (appended)
            ++state.outcome.runsCompleted;
        else
            ++state.outcome.duplicatesAvoided;
    } else {
        warn("campaign worker %s: '%s' failed: %s",
             ctx.claims.workerId().c_str(), job.fp.c_str(),
             error.c_str());
        {
            const std::string record = failureRecordJson(
                job.fp, ctx.claims.workerId(), error);
            std::lock_guard<std::mutex> lock(ctx.failuresMutex);
            ctx.failures.append(record);
        }
        ctx.claims.release(job.fp);
        std::lock_guard<std::mutex> lock(state.mutex);
        ++state.outcome.runsFailed;
        ++state.failureCounts[job.fp]; // count ours without a rescan
    }

    std::lock_guard<std::mutex> lock(state.mutex);
    state.running.erase(job.fp);
    state.inFlight.erase(job.fp);
    state.cv.notify_all();
}

void
executorLoop(WorkerContext &ctx, WorkerState &state)
{
    for (;;) {
        WorkerJob job;
        {
            std::unique_lock<std::mutex> lock(state.mutex);
            state.cv.wait(lock, [&] {
                return state.done || state.stop.load() ||
                       !state.queue.empty();
            });
            if (state.queue.empty()) {
                if (state.done || state.stop.load())
                    return;
                continue;
            }
            job = std::move(state.queue.front());
            state.queue.pop_front();
        }
        executeJob(ctx, state, job);
    }
}

std::string
workerStatusJson(const std::string &id, const WorkerState &state,
                 size_t completed)
{
    std::string out = "{\"worker\":\"" + jsonEscape(id) + '"';
    out += ",\"pid\":" + jsonFmtU64(static_cast<u64>(::getpid()));
    out += ",\"updatedAtMs\":" + jsonFmtU64(monotonicMs());
    out += ",\"completed\":" + jsonFmtU64(completed);
    out += ",\"running\":[";
    bool first = true;
    for (const std::string &fp : state.running) {
        if (!first)
            out += ',';
        first = false;
        out += '"' + jsonEscape(fp) + '"';
    }
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

} // namespace

CampaignWorkerOutcome
runCampaignWorker(const CampaignServiceOptions &opts)
{
    scrubCampaignEnv();
    SpoolPaths paths{opts.spoolRoot};
    ensureSpoolLayout(paths);

    WorkerContext ctx(paths, opts);
    WorkerState state;
    const std::string id = ctx.claims.workerId();
    const u64 startedMs = monotonicMs();

    const unsigned jobs = opts.jobs ? opts.jobs : 1;
    std::vector<std::thread> executors;
    executors.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        executors.emplace_back(executorLoop, std::ref(ctx),
                               std::ref(state));

    // Heartbeat: renew the leases of everything running here and
    // refresh workers/<id>.json. Losing a renewal race is normal
    // (lease expired under load, a peer reclaimed) — the run keeps
    // going; finalize's ownership check settles who owns the record.
    std::atomic<bool> heartbeatStop{false};
    std::thread heartbeat([&] {
        while (!heartbeatStop.load()) {
            std::vector<std::string> running;
            size_t completed = 0;
            {
                std::lock_guard<std::mutex> lock(state.mutex);
                running.assign(state.running.begin(),
                               state.running.end());
                completed = state.outcome.runsCompleted;
                atomicWriteFile(
                    paths.workerStatusPath(id),
                    workerStatusJson(id, state, completed));
            }
            for (const std::string &fp : running)
                ctx.claims.renew(fp);
            sleepMs(opts.heartbeatMs);
        }
    });

    // Scan loop: ingest batches, follow the journal and failure logs,
    // keep the queue and the per-batch status files current.
    std::map<std::string, CampaignBatch> batches;
    std::set<std::string> rejectedBatches;
    std::set<std::string> resultsWritten;
    JournalTail scanTail(paths.journalPath());
    std::unordered_set<std::string> completed;
    std::unordered_map<std::string, RunResult> records;
    FailureTail failureTail(paths.failuresPath());
    bool draining = opts.exitWhenIdle;

    for (;;) {
        if (pathExists(paths.stopPath()) ||
            (opts.externalStop && opts.externalStop->load())) {
            state.stop.store(true);
        }
        if (pathExists(paths.drainPath()))
            draining = true;
        if (opts.maxRuntimeMs &&
            monotonicMs() - startedMs > opts.maxRuntimeMs) {
            warn("campaign worker %s: max runtime exceeded, stopping",
                 id.c_str());
            state.stop.store(true);
        }
        if (state.stop.load())
            break;

        scanTail.refresh(completed, &records);
        {
            std::lock_guard<std::mutex> lock(state.mutex);
            failureTail.refresh(state.failureCounts);
        }

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

        bool anyPending = false;
        {
            std::lock_guard<std::mutex> lock(state.mutex);
            for (const auto &[name, batch] : batches) {
                BatchStatus st;
                st.name = name;
                st.total = batch.fingerprints.size();
                for (size_t i = 0; i < batch.fingerprints.size();
                     ++i) {
                    const std::string &fp = batch.fingerprints[i];
                    if (completed.count(fp)) {
                        ++st.completed;
                        continue;
                    }
                    auto fc = state.failureCounts.find(fp);
                    if (fc != state.failureCounts.end() &&
                        fc->second >= ctx.maxFailures) {
                        ++st.failed;
                        continue;
                    }
                    anyPending = true;
                    if (!state.inFlight.count(fp)) {
                        state.inFlight.insert(fp);
                        state.queue.push_back(
                            {fp, batch.configs[i]});
                    }
                }
                st.state = st.completed + st.failed < st.total
                               ? "running"
                               : (st.failed ? "failed" : "complete");
                atomicWriteFile(paths.batchStatusPath(name),
                                batchStatusJson(st));
                if (st.state == "complete" &&
                    !resultsWritten.count(name)) {
                    // Reconstruct in batch order from the journal —
                    // byte-identical to a serial run by the bit-exact
                    // round-trip (see the header comment).
                    std::vector<RunResult> results;
                    results.reserve(batch.fingerprints.size());
                    for (const std::string &fp : batch.fingerprints)
                        results.push_back(records.at(fp));
                    writeResultsCsv(paths.batchResultsPath(name),
                                    results);
                    resultsWritten.insert(name);
                    inform("campaign worker %s: batch '%s' complete",
                           id.c_str(), name.c_str());
                }
            }
            if (!state.queue.empty())
                state.cv.notify_all();
        }

        if (draining && !anyPending) {
            // Nothing left anywhere and no new work accepted: done.
            bool idle;
            {
                std::lock_guard<std::mutex> lock(state.mutex);
                idle = state.inFlight.empty();
            }
            if (idle)
                break;
        }
        sleepMs(opts.scanMs);
    }

    {
        std::lock_guard<std::mutex> lock(state.mutex);
        state.done = true;
    }
    state.cv.notify_all();
    for (std::thread &t : executors)
        t.join();
    heartbeatStop.store(true);
    heartbeat.join();

    CampaignWorkerOutcome outcome;
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        outcome = state.outcome;
    }
    outcome.stopRequested = state.stop.load();
    atomicWriteFile(paths.workerStatusPath(id),
                    workerStatusJson(id, state,
                                     outcome.runsCompleted));
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
    std::unordered_set<std::string> completed;
    std::unordered_map<std::string, RunResult> records;
    FailureTail failureTail(paths.failuresPath());
    std::unordered_map<std::string, unsigned> failureCounts;

    const u64 deadline = monotonicMs() + timeoutMs;
    for (;;) {
        tail.refresh(completed, &records);
        failureTail.refresh(failureCounts);
        bool allDone = true;
        for (const std::string &fp : batch.fingerprints) {
            if (completed.count(fp))
                continue;
            auto fc = failureCounts.find(fp);
            if (fc != failureCounts.end() && fc->second >= 2) {
                fatal("campaign config '%s' permanently failed in "
                      "the service; see %s",
                      fp.c_str(), paths.failuresPath().c_str());
            }
            allDone = false;
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
