#include "journal.hh"

#include <cstdio>
#include <fstream>

#include "util/hash.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace dopp
{

namespace
{

// The JSON parser lives in util/json.hh (shared with the campaign
// service's spool codec); numbers keep their raw tokens so integral
// stats reload as exact u64s.

constexpr u64 journalSchemaVersion = 1;

} // namespace

// ---------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------

std::string
configFingerprint(const RunConfig &cfg)
{
    // Canonical key=value rendering of every result-affecting field
    // (visitConfigFields, harness/experiment.hh).
    std::string key;
    key.reserve(1024);
    auto add = [&key](const std::string &name, const std::string &value) {
        key += name;
        key += '=';
        key += value;
        key += ';';
    };
    add("workload", cfg.workloadName);
    add("org", cfg.llcName);
    visitConfigFields(cfg, [&](const std::string &section,
                               const char *name, const auto &field) {
        add(section.empty() ? name : section + "." + name,
            configFieldText(field));
    });
    add("memTier.partitions",
        jsonFmtU64(cfg.memTier.partitions.size()));
    for (size_t i = 0; i < cfg.memTier.partitions.size(); ++i) {
        const std::string pre = "memTier.p" + jsonFmtU64(i) + ".";
        visitPartitionFields(cfg.memTier.partitions[i],
                             [&](const char *name, const auto &field) {
                                 add(pre + name, configFieldText(field));
                             });
    }
    // Slice layout (DESIGN.md §15), resolved through the same path the
    // factory builds from so a run and its resume key cannot disagree.
    const SliceConfig sc = resolvedSliceConfig(cfg);
    add("sliceCount", jsonFmtU64(sc.count));
    add("sliceHash", sliceHashName(sc.hash));
    add("mapSpaceMode", mapSpaceModeName(sc.mapSpace));

    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return cfg.workloadName + "/" + cfg.llcName + "@" + hex;
}

bool
configResumable(const RunConfig &cfg)
{
    return !cfg.onSnapshot && cfg.tracePath.empty();
}

// ---------------------------------------------------------------------
// Record writer
// ---------------------------------------------------------------------

std::string
journalRecordJson(const std::string &fingerprint,
                  const RunResult &result)
{
    std::string out;
    out.reserve(512 + 24 * result.stats.size());
    out += "{\"v\":";
    out += jsonFmtU64(journalSchemaVersion);
    out += ",\"fp\":\"";
    out += jsonEscape(fingerprint);
    out += "\",\"workload\":\"";
    out += jsonEscape(result.workload);
    out += "\",\"organization\":\"";
    out += jsonEscape(result.organization);
    out += "\",\"failed\":";
    out += result.failed ? "true" : "false";
    out += ",\"error\":\"";
    out += jsonEscape(result.error);
    out += "\",\"dopp\":";
    char sep = '{';
    visitDoppConfigFields(result.doppConfig,
                          [&](const char *key, const auto &field) {
                              out += sep;
                              sep = ',';
                              appendMember(out, key, field);
                          });
    out += "},\"output\":[";
    for (size_t i = 0; i < result.output.size(); ++i) {
        if (i)
            out += ',';
        out += jsonFmtDouble(result.output[i]);
    }
    out += "],\"stats\":[";
    bool first = true;
    for (const StatValue &v : result.stats.values()) {
        if (!first)
            out += ',';
        first = false;
        out += "{\"n\":\"";
        out += jsonEscape(v.name);
        out += v.integral ? "\",\"u\":" : "\",\"d\":";
        out += v.integral ? jsonFmtU64(v.u) : jsonFmtDouble(v.d);
        out += '}';
    }
    out += "]}\n";
    return out;
}

// ---------------------------------------------------------------------
// Record reader
// ---------------------------------------------------------------------

bool
parseJournalRecord(const std::string &line, std::string &fingerprint,
                   RunResult &result, std::string &why)
{
    JsonValue root;
    if (!JsonParser(line).parse(root) ||
        root.kind != JsonValue::Kind::Object) {
        why = "not a complete JSON object (truncated line?)";
        return false;
    }
    if (!jsonKnownKeysOnly(root,
                       {"v", "fp", "workload", "organization",
                        "failed", "error", "dopp", "output", "stats"},
                       why)) {
        return false;
    }

    const JsonValue *v = root.find("v");
    u64 version = 0;
    if (!v || !v->asU64(version) || version != journalSchemaVersion) {
        why = "unknown schema version";
        return false;
    }

    const JsonValue *fp = root.find("fp");
    const JsonValue *workload = root.find("workload");
    const JsonValue *organization = root.find("organization");
    const JsonValue *failed = root.find("failed");
    const JsonValue *error = root.find("error");
    const JsonValue *dopp = root.find("dopp");
    const JsonValue *output = root.find("output");
    const JsonValue *stats = root.find("stats");
    if (!fp || fp->kind != JsonValue::Kind::String || !workload ||
        workload->kind != JsonValue::Kind::String || !organization ||
        organization->kind != JsonValue::Kind::String || !failed ||
        failed->kind != JsonValue::Kind::Bool || !error ||
        error->kind != JsonValue::Kind::String || !dopp ||
        dopp->kind != JsonValue::Kind::Object || !output ||
        output->kind != JsonValue::Kind::Array || !stats ||
        stats->kind != JsonValue::Kind::Array) {
        why = "missing or mistyped required field";
        return false;
    }

    RunResult r;
    fingerprint = fp->text;
    r.workload = workload->text;
    r.organization = organization->text;
    r.failed = failed->boolean;
    r.error = error->text;

    static const std::vector<const char *> doppKeys = [] {
        std::vector<const char *> keys;
        const DoppConfig defaults;
        visitDoppConfigFields(defaults,
                              [&keys](const char *key, const auto &) {
                                  keys.push_back(key);
                              });
        return keys;
    }();
    if (!jsonKnownKeysOnly(*dopp, doppKeys, why))
        return false;
    bool doppOk = true;
    visitDoppConfigFields(r.doppConfig, [&](const char *key, auto &field) {
        doppOk = doppOk && readMember(*dopp, key, field);
    });
    if (!doppOk) {
        why = "missing, mistyped or out-of-range dopp field";
        return false;
    }

    r.output.reserve(output->array.size());
    for (const JsonValue &e : output->array) {
        double x = 0.0;
        if (!e.asDouble(x)) {
            why = "non-numeric output element";
            return false;
        }
        r.output.push_back(x);
    }

    // Rebuild the snapshot in record order; "u" carries an exact u64,
    // "d" a shortest-round-trip real.
    std::vector<StatValue> entries;
    entries.reserve(stats->array.size());
    for (const JsonValue &e : stats->array) {
        if (e.kind != JsonValue::Kind::Object ||
            !jsonKnownKeysOnly(e, {"n", "u", "d"}, why)) {
            if (why.empty())
                why = "malformed stat entry";
            return false;
        }
        const JsonValue *n = e.find("n");
        const JsonValue *u = e.find("u");
        const JsonValue *d = e.find("d");
        if (!n || n->kind != JsonValue::Kind::String ||
            (!u && !d) || (u && d)) {
            why = "malformed stat entry";
            return false;
        }
        StatValue sv;
        sv.name = n->text;
        if (u) {
            sv.integral = true;
            if (!u->asU64(sv.u)) {
                why = "stat '" + sv.name + "': bad counter value";
                return false;
            }
        } else {
            sv.integral = false;
            if (!d->asDouble(sv.d)) {
                why = "stat '" + sv.name + "': bad real value";
                return false;
            }
        }
        entries.push_back(std::move(sv));
    }
    r.stats = StatSnapshot::fromValues(std::move(entries));
    result = std::move(r);
    return true;
}

LoadedJournal
loadJournal(const std::string &path)
{
    LoadedJournal out;
    out.bytes = fileSizeBytes(path);

    std::ifstream in(path);
    if (!in)
        return out; // missing journal: nothing completed yet

    std::string line;
    u64 lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::string fingerprint;
        RunResult r;
        std::string why;
        if (!parseJournalRecord(line, fingerprint, r, why)) {
            warn("journal '%s': line %llu: %s; the affected config "
                 "will re-run",
                 path.c_str(),
                 static_cast<unsigned long long>(lineNo),
                 why.c_str());
            ++out.recordsDiscarded;
            continue;
        }
        ++out.recordsLoaded;
        out.records[fingerprint] = std::move(r); // last record wins
    }
    return out;
}

size_t
JournalTail::refresh(std::unordered_set<std::string> &journaled,
                     std::unordered_map<std::string, RunResult> *records)
{
    std::ifstream in(filePath, std::ios::binary);
    if (!in)
        return 0; // journal not created yet
    in.seekg(static_cast<std::streamoff>(offset));
    if (!in)
        return 0;

    // Pull everything appended since the last call into the pending
    // buffer, then consume only newline-terminated lines from it — an
    // unterminated tail is an append in flight elsewhere and stays
    // buffered for the next refresh.
    char buf[16384];
    for (;;) {
        in.read(buf, sizeof(buf));
        const std::streamsize n = in.gcount();
        if (n <= 0)
            break;
        pending.append(buf, static_cast<size_t>(n));
        offset += static_cast<u64>(n);
    }

    size_t consumed = 0;
    size_t start = 0;
    for (;;) {
        const size_t nl = pending.find('\n', start);
        if (nl == std::string::npos)
            break;
        const std::string line = pending.substr(start, nl - start);
        start = nl + 1;
        ++lineNo;
        if (line.empty())
            continue;
        std::string fingerprint;
        RunResult r;
        std::string why;
        if (!parseJournalRecord(line, fingerprint, r, why)) {
            warn("journal '%s': line %llu: %s; record ignored",
                 filePath.c_str(),
                 static_cast<unsigned long long>(lineNo), why.c_str());
            continue;
        }
        ++consumed;
        journaled.insert(fingerprint);
        if (records)
            (*records)[fingerprint] = std::move(r); // last wins
    }
    pending.erase(0, start);
    return consumed;
}

} // namespace dopp
