/**
 * @file
 * Journaled checkpoint store for batch campaigns (DESIGN.md §11).
 *
 * Every finished run is appended to a JSONL journal as one
 * self-describing record keyed by a deterministic *config
 * fingerprint* — a hash over every result-affecting RunConfig field.
 * Records are written with a single O_APPEND write(2) + fsync(2)
 * (util/fileio.hh), so after a crash the journal is parseable up to,
 * at worst, one truncated final line. A resumed campaign
 * (runBatchResumable, harness/batch_runner.hh) loads the journal,
 * reuses the record of every fingerprint-matching completed run, and
 * re-executes only the remainder; the determinism contract (§9) makes
 * the reconstructed results bit-identical to a fresh execution.
 *
 * What a record carries: workload, organization, failure state, the
 * full ordered StatRegistry snapshot (exact u64 counters, shortest-
 * round-trip reals), the application output vector and the
 * Doppelgänger geometry. The snapshot is RunResult's only stat
 * record, so a loaded record is the live RunResult minus what the
 * journal does NOT persist: the raw fault-event trace and the
 * guardrail's degradation intervals — campaigns that analyse those
 * re-run without a journal.
 *
 * Corruption tolerance (loadJournal): a truncated or otherwise
 * unparseable line, an unknown schema version or column, or a record
 * missing required fields is discarded with a warning — the affected
 * config simply re-runs. A duplicate fingerprint keeps the *last*
 * record (a later campaign's result supersedes an earlier one).
 */

#ifndef DOPP_HARNESS_JOURNAL_HH
#define DOPP_HARNESS_JOURNAL_HH

#include <limits>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "harness/experiment.hh"
#include "util/fileio.hh"
#include "util/json.hh"

namespace dopp
{

/** Canonical text of one visitConfigFields scalar, shared by the
 * fingerprint and the campaign codec: integers, bools (0/1) and enums
 * in decimal, doubles in shortest round-trip form, strings verbatim. */
template <typename T>
std::string
configFieldText(const T &x)
{
    if constexpr (std::is_same_v<T, std::string>)
        return x;
    else if constexpr (std::is_floating_point_v<T>)
        return jsonFmtDouble(x);
    else
        return jsonFmtU64(static_cast<u64>(x));
}

/** Append @p key and the JSON form of one visited field to @p out:
 * the member form of the journal record's "dopp" block and of the
 * campaign codec (harness/campaign_service.hh). */
template <typename T>
void
appendMember(std::string &out, const char *key, const T &field)
{
    out += '"';
    out += key;
    out += "\":";
    if constexpr (std::is_same_v<T, std::string>)
        out += '"' + jsonEscape(field) + '"';
    else
        out += configFieldText(field);
}

/** Largest valid value of each enum the visitors yield (an enum
 * missing here fails to compile: it cannot return MemPartitionKind). */
template <typename E>
constexpr E
lastEnumValue()
{
    if constexpr (std::is_same_v<E, MapHashMode>)
        return MapHashMode::RangeOnly;
    else if constexpr (std::is_same_v<E, ReplPolicy>)
        return ReplPolicy::RANDOM;
    else
        return MemPartitionKind::Nvm;
}

/** Read member @p key of @p obj into one visited field. @return false
 * when the member is missing, mistyped, or out of the field's range. */
template <typename T>
bool
readMember(const JsonValue &obj, const char *key, T &field)
{
    const JsonValue *v = obj.find(key);
    if constexpr (std::is_same_v<T, std::string>) {
        if (!v || v->kind != JsonValue::Kind::String)
            return false;
        field = v->text;
        return true;
    } else if constexpr (std::is_floating_point_v<T>) {
        return v && v->asDouble(field);
    } else {
        u64 n = 0;
        if (!v || !v->asU64(n))
            return false;
        if constexpr (std::is_enum_v<T>) {
            if (n > static_cast<u64>(lastEnumValue<T>()))
                return false;
        } else if (n > std::numeric_limits<T>::max()) {
            return false;
        }
        field = static_cast<T>(n);
        return true;
    }
}

/**
 * Deterministic fingerprint of every result-affecting field of
 * @p cfg: workload name, organization, every visitConfigFields and
 * visitPartitionFields field (harness/experiment.hh), the resolved
 * slice layout and, when the list is non-empty, the snapshot period
 * and analyses. The observation-only fields (tracePath, abortFlag)
 * are excluded on purpose: they never change a RunResult (a config
 * that records a trace is re-executed on resume rather than reused;
 * see runBatchResumable).
 * Format: "<workload>/<organization>@<16 hex>".
 */
std::string configFingerprint(const RunConfig &cfg);

/** Whether a journal record for @p cfg may be *reused* on resume:
 * false for a config that records a trace (tracePath), a side effect
 * a journal cannot replay. */
bool configResumable(const RunConfig &cfg);

/** One journal record serialized as a single JSON line (with the
 * trailing newline). */
std::string journalRecordJson(const std::string &fingerprint,
                              const RunResult &result);

/**
 * Parse one journal line. On success fills @p fingerprint and
 * @p result and returns true; on any malformation fills @p why and returns false.
 */
bool parseJournalRecord(const std::string &line,
                        std::string &fingerprint, RunResult &result,
                        std::string &why);

/** Contents of a loaded journal. */
struct LoadedJournal
{
    /** Last valid record per fingerprint. */
    std::unordered_map<std::string, RunResult> records;

    size_t recordsLoaded = 0;    ///< valid records (incl. superseded)
    size_t recordsDiscarded = 0; ///< malformed/unknown-schema lines
    u64 bytes = 0;               ///< journal size on disk
};

/**
 * Load the journal at @p path. A missing file is an empty journal;
 * malformed lines are discarded with a warning naming the path, the
 * 1-based line number and the reason (see corruption tolerance
 * above). Never fatal on content: the worst corruption can do is
 * force a re-run.
 */
LoadedJournal loadJournal(const std::string &path);

/**
 * Incremental journal follower for long-lived observers (the campaign
 * service's workers and clients, harness/campaign_service.hh): each
 * refresh() parses only the bytes appended since the last call, so
 * polling a growing multi-thousand-record journal stays cheap.
 *
 * Torn-read tolerance: only lines ending in '\n' are consumed — a
 * final unterminated chunk (an append in flight in another process)
 * stays buffered until a later refresh completes it. A terminated
 * line that still fails to parse is discarded with a warning, exactly
 * like loadJournal: the worst it can cost is a redundant re-run.
 */
class JournalTail
{
  public:
    explicit JournalTail(std::string path) : filePath(std::move(path))
    {
    }

    /**
     * Read newly appended records. Every valid record, failed or not,
     * adds its fingerprint to @p journaled; @p records, when non-null,
     * additionally receives the full parsed results (last record per
     * fingerprint wins, as in loadJournal).
     * @return the number of valid new records consumed.
     */
    size_t refresh(std::unordered_set<std::string> &journaled,
                   std::unordered_map<std::string, RunResult>
                       *records = nullptr);

    const std::string &path() const { return filePath; }

  private:
    std::string filePath;
    u64 offset = 0;      ///< bytes of the file fully consumed
    std::string pending; ///< trailing unterminated chunk
    u64 lineNo = 0;      ///< 1-based line count for warnings
};

/**
 * Append handle for one campaign's journal. Thread-safe: the batch
 * runner's workers append from whichever thread finished the run.
 */
class RunJournal
{
  public:
    /** Open (creating if needed) the journal at @p path. */
    explicit RunJournal(const std::string &path) : log(path) {}

    /** Append the record for @p result under @p fingerprint.
     * @return bytes appended. */
    u64
    append(const std::string &fingerprint, const RunResult &result)
    {
        const std::string record =
            journalRecordJson(fingerprint, result);
        std::lock_guard<std::mutex> lock(mutex);
        return log.append(record);
    }

    const std::string &path() const { return log.path(); }
    u64 bytesAppended() const { return log.bytesAppended(); }
    u64 openedAtBytes() const { return log.openedAtBytes(); }

  private:
    std::mutex mutex;
    AppendLog log;
};

} // namespace dopp

#endif // DOPP_HARNESS_JOURNAL_HH
