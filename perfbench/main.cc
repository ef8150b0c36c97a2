/**
 * @file
 * End-to-end benchmark runner: runs one benchmark workload (a list of
 * runWorkload configurations, sweeps.hh) and prints one JSON line of
 * raw measurements for run.py, which turns them into the benchmark's
 * metrics. Every workload is a closed loop: one run at a time, on one
 * thread, each run starting from cold simulated caches.
 *
 * Usage: perfbench_e2e <mode> [options]
 *   setup     set up (configs, expected results, one warm-up run),
 *             print "ready", then the host probe's median time, and
 *             exit
 *   measure   set up, then repeat the untraced sweep for --seconds,
 *             timing the host probe (calibrate.hh) before each run
 *   trace     set up, then repeat untraced, traced and replay passes
 *             for --seconds; write spans to --spans
 *   oracle    print the result digest of every run for --seeds
 *   selftest  tiny-scale checks of the decorator and the oracle
 * Options: --workload NAME  --seed N  --seconds S  --expected DIR
 *          --spans PATH  --seeds N,N,...
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>

#include "calibrate.hh"
#include "harness/llc_factory.hh"
#include "sim/mem_tier.hh"
#include "sweeps.hh"
#include "traced.hh"
#include "util/json.hh"
#include "util/logging.hh"

using namespace dopp;
using namespace perfbench;

namespace
{

/** Expected result digests of one workload for one seed. */
struct Oracle
{
    bool covered = false; ///< the file holds digests for this seed
    std::unordered_map<std::string, u64> digests; ///< label -> digest
};

/**
 * Read "<dir>/<workload>.txt": a "# scale X" line, then one
 * "<seed> <kernel>/<org> <hex digest>" line per run. A scale other
 * than the sweep's means the file is stale, which is fatal.
 */
Oracle
loadOracle(const std::string &dir, const Sweep &sweep, u64 seed)
{
    const std::string path = dir + "/" + sweep.name + ".txt";
    std::ifstream in(path);
    if (!in)
        fatal("perfbench: cannot read expected results %s", path.c_str());
    Oracle o;
    std::string line;
    bool scaleSeen = false;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        if (line.rfind("# scale ", 0) == 0) {
            std::string hash, word;
            double scale = 0.0;
            ls >> hash >> word >> scale;
            if (scale != sweep.scale) {
                fatal("perfbench: %s was written at scale %g, the "
                      "workload runs at %g; regenerate it",
                      path.c_str(), scale, sweep.scale);
            }
            scaleSeen = true;
            continue;
        }
        if (line.empty() || line[0] == '#')
            continue;
        u64 fileSeed = 0;
        std::string label, hex;
        if (!(ls >> fileSeed >> label >> hex))
            fatal("perfbench: malformed line in %s: %s", path.c_str(),
                  line.c_str());
        if (fileSeed != seed)
            continue;
        o.covered = true;
        o.digests[label] = std::stoull(hex, nullptr, 16);
    }
    if (!scaleSeen)
        fatal("perfbench: %s has no '# scale' line", path.c_str());
    return o;
}

/** Whether digest @p d of run @p label matches the oracle; runs of a
 * seed the oracle does not cover are only checked for determinism. */
bool
oracleAccepts(const Oracle &o, const std::string &label, u64 d)
{
    if (!o.covered)
        return true;
    auto it = o.digests.find(label);
    return it != o.digests.end() && it->second == d;
}

std::string
hex64(u64 v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
secondsOf(u64 ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/** Counter or formula @p name of @p s, 0 when the run lacks it. */
double
statOr0(const StatSnapshot &s, const std::string &name)
{
    return s.has(name) ? s.value(name) : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Minimal JSON object writer for the result line. */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double v)
    {
        return raw(key, std::isfinite(v) ? jsonFmtDouble(v) : "null");
    }

    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, "\"" + jsonEscape(v) + "\"");
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body += body.empty() ? "{" : ",";
        body += "\"" + jsonEscape(key) + "\":" + json;
        return *this;
    }

    std::string str() const { return body.empty() ? "{}" : body + "}"; }

  private:
    std::string body;
};

std::string
jsonList(const std::vector<double> &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ",";
        s += jsonFmtDouble(v[i]);
    }
    return s + "]";
}

/** Failed runs and mismatches against the runs attempted. */
struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;
    std::vector<std::string> why; ///< first few failures, for stderr

    void
    fail(const std::string &reason)
    {
        ++failed;
        if (why.size() < 8)
            why.push_back(reason);
    }
};

/** One untraced pass over the sweep through runWorkload. */
struct UntracedPass
{
    std::vector<double> runSeconds;   ///< per run, in sweep order
    std::vector<double> probeSeconds; ///< host probe before each run
    std::vector<u64> digests;         ///< per run; 0 when it failed
    std::vector<StatSnapshot> stats;  ///< kept only when asked for
    u64 accesses = 0;                 ///< hierarchy.accesses, summed

    double
    seconds() const
    {
        double s = 0.0;
        for (double r : runSeconds)
            s += r;
        return s;
    }
};

/** How an untraced pass times the host probe. */
struct ProbePlan
{
    bool probe = false; ///< time the host probe before every run
    u64 stopNs = 0;     ///< when nonzero, start no run after this time
};

/**
 * Run every configuration of @p sweep through runWorkload, timing each
 * call, and as @p plan says the host probe just before it. The first
 * pass (@p reference empty) is checked against the oracle; later
 * passes must reproduce @p reference digest for digest.
 */
UntracedPass
untracedPass(const Sweep &sweep, const Oracle &oracle,
             const std::vector<u64> &reference, bool keep_stats,
             Tally &tally, ProbePlan plan = {})
{
    UntracedPass p;
    for (size_t i = 0; i < sweep.runs.size(); ++i) {
        if (plan.stopNs && nowNs() >= plan.stopNs)
            break;
        const RunConfig &cfg = sweep.runs[i];
        const std::string label = runLabel(cfg);
        if (plan.probe)
            p.probeSeconds.push_back(secondsOf(hostProbe().ns));
        ++tally.attempted;
        RunResult r;
        const u64 start = nowNs();
        try {
            r = runWorkload(cfg);
        } catch (const std::exception &e) {
            r.failed = true;
            r.error = e.what();
        }
        p.runSeconds.push_back(secondsOf(nowNs() - start));
        if (r.failed) {
            tally.fail(label + " failed: " + r.error);
            p.digests.push_back(0);
            p.stats.emplace_back();
            continue;
        }
        const u64 d = resultDigest(r.stats, r.output);
        if (reference.empty() ? !oracleAccepts(oracle, label, d)
                              : d != reference[i]) {
            tally.fail(label + " result digest " + hex64(d) +
                       (reference.empty() ? " differs from the oracle"
                                          : " differs from pass 1"));
        }
        p.digests.push_back(d);
        p.accesses += r.stats.counter("hierarchy.accesses");
        p.stats.push_back(keep_stats ? std::move(r.stats)
                                     : StatSnapshot{});
    }
    return p;
}

/** Everything run before measuring; timed as a whole by run.py. */
struct Prepared
{
    Sweep sweep;
    Oracle oracle;
};

Prepared
prepare(const std::string &workload, u64 seed,
        const std::string &expected_dir)
{
    registerBuiltinLlcs();
    Prepared p{makeSweep(workload, seed), {}};
    p.oracle = loadOracle(expected_dir, p.sweep, seed);
    // Untimed warm-up: first-touch page faults and allocator growth.
    runWorkload(p.sweep.runs.front());
    return p;
}

void
announceReady()
{
    std::printf("ready\n");
    std::fflush(stdout);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
buildJson()
{
    JsonObject b;
#if defined(__clang__)
    b.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    b.str("compiler", std::string("gcc ") + __VERSION__);
#else
    b.str("compiler", "unknown");
#endif
    b.str("build_type", PERFBENCH_BUILD_TYPE);
    return b.str();
}

void
printResult(const Prepared &p, const Tally &t, double peak_rss_mb,
            JsonObject &extra)
{
    for (const std::string &w : t.why)
        std::fprintf(stderr, "perfbench: %s\n", w.c_str());
    extra.str("workload", p.sweep.name)
        .num("scale", p.sweep.scale)
        .num("runs", static_cast<double>(p.sweep.runs.size()))
        .str("oracle", p.oracle.covered ? "digests" : "determinism-only")
        .num("attempted", static_cast<double>(t.attempted))
        .num("failed", static_cast<double>(t.failed))
        .num("peak_rss_mb", peak_rss_mb)
        .raw("build", buildJson());
    std::printf("%s\n", extra.str().c_str());
}

/**
 * The first pass is checked against the oracle and fixes the peak RSS
 * before the host probe allocates its model. Every later pass probes
 * the host before each run and must reproduce the first pass. The
 * first probed pass is whole; the later ones stop at the deadline,
 * between runs.
 */
int
measureMode(const Prepared &p, double seconds)
{
    announceReady();
    Tally tally;
    const u64 deadline = nowNs() + static_cast<u64>(seconds * 1e9);
    const UntracedPass first =
        untracedPass(p.sweep, p.oracle, {}, false, tally);
    const double peakRss = peakRssMb();
    hostProbe(); // untimed: allocates and warms the model
    std::string runs, probes;
    ProbePlan plan{true, 0};
    do {
        const UntracedPass pass = untracedPass(
            p.sweep, p.oracle, first.digests, false, tally, plan);
        runs += (runs.empty() ? "" : ",") + jsonList(pass.runSeconds);
        probes += (probes.empty() ? "" : ",") + jsonList(pass.probeSeconds);
        plan.stopNs = deadline;
    } while (nowNs() < deadline);

    JsonObject out;
    out.raw("run_seconds", "[" + runs + "]")
        .raw("probe_seconds", "[" + probes + "]")
        .num("accesses", static_cast<double>(first.accesses));
    printResult(p, tally, peakRss, out);
    return 0;
}

/** Per-layer figures of one trace cycle (host time). */
struct CycleTimes
{
    double kernelS = 0.0;
    double llcSelfS = 0.0;
    double hierNsPerAccess = 0.0;
    double backinvalS = 0.0;
    double fetchHitNs = 0.0;
    double fetchMissNs = 0.0;
    double writebackNs = 0.0;
    double tagProbeS = 0.0;
    double mtagProbeS = 0.0;
    double listMaintS = 0.0;
    double dataArrayS = 0.0;
    double setupMs = 0.0;
    double snapshotMs = 0.0;
    double overheadFrac = 0.0;
    double traceOverheadFrac = 0.0;
};

double
meanNs(const SpanTotal &s)
{
    return s.count ? static_cast<double>(s.ns) /
            static_cast<double>(s.count)
                   : 0.0;
}

/** Append @p r's spans to @p out as JSON lines: run, its three
 * phases, and the per-call LLC aggregates under the kernel. */
void
appendSpans(std::string &out, unsigned cycle, const TracedRun &r,
            u64 &next_id)
{
    const u64 runId = next_id;
    const u64 kernelId = runId + 2;
    next_id += 4;
    auto span = [&](u64 id, u64 parent, const char *name, u64 start,
                    u64 dur) {
        JsonObject s;
        s.num("id", static_cast<double>(id))
            .num("parent", static_cast<double>(parent))
            .num("cycle", cycle)
            .str("run", r.label)
            .str("name", name)
            .num("start_ns", static_cast<double>(start))
            .num("end_ns", static_cast<double>(start + dur));
        out += s.str() + "\n";
    };
    auto aggregate = [&](const char *name, const SpanTotal &t) {
        JsonObject s;
        s.num("id", static_cast<double>(next_id++))
            .num("parent", static_cast<double>(kernelId))
            .num("cycle", cycle)
            .str("run", r.label)
            .str("name", name)
            .num("count", static_cast<double>(t.count))
            .num("total_ns", static_cast<double>(t.ns));
        out += s.str() + "\n";
    };
    span(runId, 0, "run", r.startNs, r.runNs);
    span(runId + 1, runId, "setup", r.startNs, r.setupNs);
    span(kernelId, runId, "kernel", r.startNs + r.setupNs, r.kernelNs);
    span(runId + 3, runId, "snapshot",
         r.startNs + r.setupNs + r.kernelNs, r.snapshotNs);
    aggregate("llc.fetch.hit", r.llc.fetchHit);
    aggregate("llc.fetch.miss", r.llc.fetchMiss);
    aggregate("llc.writeback", r.llc.writeback);
    aggregate("hierarchy.backinval", r.llc.backInval);
}

/** Whether a baseline run's replay reproduced its hierarchy and LLC
 * counters: the replay is exact for the organization it replays on. */
bool
replayExact(const StatSnapshot &run, const StatSnapshot &replay)
{
    for (const StatValue &v : replay.values()) {
        if (v.name.rfind("hierarchy.", 0) != 0 &&
            v.name.rfind("llc.", 0) != 0)
            continue;
        if (!run.has(v.name) || run.value(v.name) != v.asDouble())
            return false;
    }
    return true;
}

/** Count metrics of the sweep, from the untraced end-of-run
 * snapshots (identical in every pass). */
void
countMetrics(const Sweep &sweep, const std::vector<StatSnapshot> &stats,
             JsonObject &m)
{
    double acc = 0, l1h = 0, l1m = 0, l2m = 0, fetches = 0, hits = 0;
    double wbIn = 0, mapGens = 0, memR = 0, memW = 0, traffic = 0;
    double injected = 0, detected = 0, degradations = 0, migrations = 0;
    double tpdSum = 0, tpdRuns = 0;
    std::vector<double> sliceFetches;
    for (size_t i = 0; i < stats.size(); ++i) {
        const StatSnapshot &s = stats[i];
        if (s.empty())
            continue;
        acc += statOr0(s, "hierarchy.accesses");
        l1h += statOr0(s, "hierarchy.l1.hits");
        l1m += statOr0(s, "hierarchy.l1.misses");
        l2m += statOr0(s, "hierarchy.l2.misses");
        fetches += statOr0(s, "llc.fetches");
        hits += statOr0(s, "llc.fetchHits");
        wbIn += statOr0(s, "llc.writebacksIn");
        mapGens += statOr0(s, "llc.mapGens");
        memR += statOr0(s, "mem.reads");
        memW += statOr0(s, "mem.writes");
        traffic += statOr0(s, "mem.traffic");
        injected += statOr0(s, "fault.injected.total");
        detected += statOr0(s, "fault.detected");
        degradations += statOr0(s, "qor.degradations");
        migrations += statOr0(s, "mem.migrations");
        const double tpd = statOr0(s, "run.tagsPerDataEntry");
        if (tpd > 0.0) {
            tpdSum += tpd;
            tpdRuns += 1;
        }
        const u32 slices = sweep.runs[i].sliceCount;
        if (sliceFetches.size() < slices)
            sliceFetches.resize(slices, 0.0);
        for (u32 k = 0; slices > 1 && k < slices; ++k) {
            sliceFetches[k] += statOr0(
                s, "llc.slice" + std::to_string(k) + ".fetches");
        }
    }
    double maxSlice = fetches;
    if (sliceFetches.size() > 1)
        maxSlice = *std::max_element(sliceFetches.begin(),
                                     sliceFetches.end());
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    m.num("hierarchy.l1_miss_ratio", ratio(l1m, l1h + l1m))
        .num("hierarchy.l2_mpka", 1000.0 * ratio(l2m, acc))
        .num("llc.hit_ratio", ratio(hits, fetches))
        .num("llc.fetches", fetches)
        .num("llc.writebacks_in", wbIn)
        .num("llc.slice_max_share", ratio(maxSlice, fetches))
        .num("core.map_gens_per_kaccess", 1000.0 * ratio(mapGens, acc))
        .num("core.tags_per_data_entry", ratio(tpdSum, tpdRuns))
        .num("memory.reads", memR)
        .num("memory.writes", memW)
        .num("memory.traffic_per_kaccess", 1000.0 * ratio(traffic, acc))
        .num("fault.injected", injected)
        .num("fault.detected", detected)
        .num("qor.degradations", degradations)
        .num("mem.migrations", migrations);
}

int
traceMode(const Prepared &p, double seconds, const std::string &spans_path)
{
    announceReady();
    Tally tally;
    const Sweep &sweep = p.sweep;
    const u64 deadline = nowNs() + static_cast<u64>(seconds * 1e9);
    std::vector<u64> reference;
    std::vector<StatSnapshot> stats;
    std::vector<CycleTimes> cycles;
    double backinvals = 0;
    std::string spans;
    u64 nextSpanId = 1;
    do {
        const unsigned cycle = static_cast<unsigned>(cycles.size());
        UntracedPass base = untracedPass(sweep, p.oracle, reference,
                                         reference.empty(), tally);
        if (reference.empty()) {
            reference = base.digests;
            stats = std::move(base.stats);
        }

        CycleTimes c;
        LlcSpans llc;
        HotPathProfile phases;
        double tracedRunS = 0, setupS = 0, snapS = 0, runMinusKernel = 0;
        for (size_t i = 0; i < sweep.runs.size(); ++i) {
            ++tally.attempted;
            const TracedRun r = tracedRun(sweep.runs[i]);
            if (resultDigest(r.stats, r.output) != reference[i])
                tally.fail(r.label + " traced run differs from the "
                                     "untraced run");
            appendSpans(spans, cycle, r, nextSpanId);
            c.kernelS += secondsOf(r.kernelNs);
            tracedRunS += secondsOf(r.runNs);
            setupS += secondsOf(r.setupNs);
            snapS += secondsOf(r.snapshotNs);
            runMinusKernel += secondsOf(r.runNs - r.kernelNs);
            llc += r.llc;
        }

        u64 replayAccesses = 0, replayHierNs = 0;
        for (size_t i = 0; i < sweep.runs.size(); ++i) {
            const ReplayRun rr = recordAndReplay(sweep.runs[i]);
            replayAccesses += rr.accesses;
            replayHierNs += rr.hierarchySelfNs();
            phases.tagProbeNs += rr.phases.tagProbeNs;
            phases.mtagProbeNs += rr.phases.mtagProbeNs;
            phases.listMaintNs += rr.phases.listMaintNs;
            phases.dataArrayNs += rr.phases.dataArrayNs;
            if (sweep.runs[i].llcName != "baseline")
                continue;
            ++tally.attempted;
            if (stats[i].empty() || !replayExact(stats[i], rr.stats))
                tally.fail(runLabel(sweep.runs[i]) +
                           " replay differs from the baseline run");
        }

        const double n = static_cast<double>(sweep.runs.size());
        c.llcSelfS = secondsOf(llc.selfNs());
        c.hierNsPerAccess = replayAccesses
            ? static_cast<double>(replayHierNs) /
                static_cast<double>(replayAccesses)
            : 0.0;
        c.backinvalS = secondsOf(llc.backInval.ns);
        backinvals = static_cast<double>(llc.backInval.count);
        c.fetchHitNs = meanNs(llc.fetchHit);
        c.fetchMissNs = meanNs(llc.fetchMiss);
        c.writebackNs = meanNs(llc.writeback);
        c.tagProbeS = secondsOf(phases.tagProbeNs);
        c.mtagProbeS = secondsOf(phases.mtagProbeNs);
        c.listMaintS = secondsOf(phases.listMaintNs);
        c.dataArrayS = secondsOf(phases.dataArrayNs);
        c.setupMs = 1e3 * setupS / n;
        c.snapshotMs = 1e3 * snapS / n;
        c.overheadFrac = tracedRunS > 0 ? runMinusKernel / tracedRunS : 0;
        c.traceOverheadFrac = tracedRunS / base.seconds() - 1.0;
        cycles.push_back(c);
    } while (nowNs() < deadline);

    auto med = [&cycles](double CycleTimes::*f) {
        std::vector<double> v;
        for (const CycleTimes &c : cycles)
            v.push_back(c.*f);
        return median(v);
    };
    double accesses = 0;
    for (const StatSnapshot &s : stats)
        accesses += statOr0(s, "hierarchy.accesses");
    const double hierNs = med(&CycleTimes::hierNsPerAccess);

    JsonObject m;
    m.num("workloads.self_s",
          med(&CycleTimes::kernelS) - med(&CycleTimes::llcSelfS) -
              accesses * hierNs * 1e-9)
        .num("hierarchy.self_ns_per_access", hierNs)
        .num("hierarchy.backinval_s", med(&CycleTimes::backinvalS))
        .num("hierarchy.backinvals", backinvals)
        .num("llc.fetch_hit_ns", med(&CycleTimes::fetchHitNs))
        .num("llc.fetch_miss_ns", med(&CycleTimes::fetchMissNs))
        .num("llc.writeback_ns", med(&CycleTimes::writebackNs))
        .num("llc.self_s", med(&CycleTimes::llcSelfS))
        .num("llc.tag_probe_s", med(&CycleTimes::tagProbeS))
        .num("llc.mtag_probe_s", med(&CycleTimes::mtagProbeS))
        .num("llc.list_maint_s", med(&CycleTimes::listMaintS))
        .num("llc.data_array_s", med(&CycleTimes::dataArrayS))
        .num("harness.setup_ms", med(&CycleTimes::setupMs))
        .num("harness.snapshot_ms", med(&CycleTimes::snapshotMs))
        .num("harness.overhead_frac", med(&CycleTimes::overheadFrac))
        .num("trace_overhead_frac", med(&CycleTimes::traceOverheadFrac));
    countMetrics(sweep, stats, m);

    if (!spans_path.empty()) {
        std::ofstream f(spans_path, std::ios::trunc);
        f << spans;
        if (!f)
            fatal("perfbench: cannot write spans to %s",
                  spans_path.c_str());
    }

    JsonObject out;
    out.raw("metrics", m.str())
        .num("cycles", static_cast<double>(cycles.size()));
    printResult(p, tally, peakRssMb(), out);
    return 0;
}

std::vector<u64>
parseSeeds(const std::string &list)
{
    std::vector<u64> seeds;
    std::stringstream ss(list);
    std::string tok;
    while (std::getline(ss, tok, ','))
        if (!tok.empty())
            seeds.push_back(std::stoull(tok));
    if (seeds.empty())
        fatal("perfbench: --seeds needs a comma-separated list");
    return seeds;
}

int
oracleMode(const std::string &workload, const std::vector<u64> &seeds)
{
    registerBuiltinLlcs();
    std::printf("# expected result digests: FNV-1a of each run's "
                "end-of-run StatRegistry JSON and output vector\n");
    std::printf("# scale %s\n",
                jsonFmtDouble(makeSweep(workload, seeds.front()).scale)
                    .c_str());
    for (u64 seed : seeds) {
        const Sweep sweep = makeSweep(workload, seed);
        for (const RunConfig &cfg : sweep.runs) {
            const RunResult r = runWorkload(cfg);
            std::printf("%llu %s %s\n",
                        static_cast<unsigned long long>(seed),
                        runLabel(cfg).c_str(),
                        hex64(resultDigest(r.stats, r.output)).c_str());
        }
        std::fflush(stdout);
    }
    return 0;
}

/** Self-test: at a tiny scale, the decorator is transparent for every
 * registered organization unsliced, at 4 slices, and tiered and
 * faulted; a baseline replay is exact; a wrong digest is caught. */
int
selftestMode()
{
    registerBuiltinLlcs();
    int failures = 0;
    auto check = [&failures](bool ok, const std::string &what) {
        std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
        failures += ok ? 0 : 1;
    };

    auto tiny = [](const std::string &org) {
        RunConfig cfg;
        cfg.workloadName = "swaptions";
        cfg.llcName = org;
        cfg.workload.scale = 0.2;
        cfg.workload.seed = 7;
        return cfg;
    };
    u64 faultsInjected = 0;
    for (const std::string &org : registeredLlcNames()) {
        RunConfig sliced = tiny(org);
        sliced.sliceCount = 4;
        RunConfig faulted = sliced;
        faulted.sliceHash = "sandybridge";
        faulted.memTier = defaultMemTier(1e-3, 1e-3);
        faulted.fault.seed = 7;
        faulted.fault.dataRate = 1e-2;
        faulted.fault.tagMetaRate = 1e-2;
        faulted.fault.mtagMetaRate = 1e-2;
        faulted.qor.budget = 0.002;
        faulted.qor.migrateFactor = 1.5;
        const std::pair<const char *, RunConfig> variants[] = {
            {"unsliced", tiny(org)},
            {"4 slices", sliced},
            {"tiered+faulted", faulted}};
        for (const auto &[variant, cfg] : variants) {
            const RunResult plain = runWorkload(cfg);
            const TracedRun traced = tracedRun(cfg);
            check(plain.stats == traced.stats &&
                      plain.output == traced.output &&
                      traced.llc.fetchHit.count +
                              traced.llc.fetchMiss.count ==
                          plain.stats.counter("llc.fetches"),
                  "decorator transparent: " + org + ", " + variant);
            if (cfg.fault.enabled())
                faultsInjected +=
                    plain.stats.counter("fault.injected.total");
        }
    }
    check(faultsInjected > 0, "tiered+faulted runs inject faults");

    const RunConfig base = tiny("baseline");
    const RunResult plain = runWorkload(base);
    const ReplayRun replay = recordAndReplay(base);
    check(replay.accesses == plain.stats.counter("hierarchy.accesses") &&
              replayExact(plain.stats, replay.stats),
          "baseline replay reproduces the run's hierarchy counters");

    Sweep sweep{"selftest", 0.2, {tiny("baseline"), tiny("gdish")}};
    Oracle good;
    good.covered = true;
    for (const RunConfig &cfg : sweep.runs) {
        const RunResult r = runWorkload(cfg);
        good.digests[runLabel(cfg)] = resultDigest(r.stats, r.output);
    }
    Tally clean;
    untracedPass(sweep, good, {}, false, clean);
    check(clean.failed == 0, "matching oracle gives fail_frac 0");
    Oracle wrong = good;
    wrong.digests[runLabel(sweep.runs[1])] ^= 1;
    Tally caught;
    untracedPass(sweep, wrong, {}, false, caught);
    check(caught.failed == 1 && caught.attempted == 2,
          "a wrong expected digest drives fail_frac above 0");

    const ProbeResult cold = hostProbe(), warm = hostProbe();
    check(cold.checksum == warm.checksum && warm.ns > 0,
          "the host probe repeats the same work");

    std::printf("%s: %d failure(s)\n", failures ? "FAIL" : "OK",
                failures);
    return failures ? 1 : 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_e2e setup|measure|trace|oracle|"
                 "selftest [--workload NAME] [--seed N] [--seconds S] "
                 "[--expected DIR] [--spans PATH] [--seeds N,...]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string mode = argv[1];
    std::string workload, expected, spansPath, seedList;
    u64 seed = 12345;
    double seconds = 10.0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string val = argv[++i];
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::stoull(val);
        else if (arg == "--seconds")
            seconds = std::stod(val);
        else if (arg == "--expected")
            expected = val;
        else if (arg == "--spans")
            spansPath = val;
        else if (arg == "--seeds")
            seedList = val;
        else
            usage();
    }

    if (mode == "selftest")
        return selftestMode();
    if (workload.empty())
        usage();
    if (mode == "oracle")
        return oracleMode(workload, parseSeeds(seedList));
    if (expected.empty())
        usage();
    const Prepared p = prepare(workload, seed, expected);
    if (mode == "setup") {
        announceReady();
        // The host's speed right after set-up: the median of three
        // probes, printed for run.py.
        hostProbe(); // untimed: allocates and warms the model
        std::vector<double> probes;
        for (int i = 0; i < 3; ++i)
            probes.push_back(secondsOf(hostProbe().ns));
        std::printf("%s\n", jsonFmtDouble(median(probes)).c_str());
        return 0;
    }
    if (mode == "measure")
        return measureMode(p, seconds);
    if (mode == "trace")
        return traceMode(p, seconds, spansPath);
    usage();
}
