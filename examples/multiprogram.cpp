/**
 * @file
 * Multiprogrammed-workload example (paper Sec 4.1: "Doppelgänger can
 * be used with multiprogrammed workloads by storing this information
 * per application"). Two benchmarks are recorded separately, their
 * traces interleaved into one multiprogrammed access stream with
 * disjoint address spaces and split cores, and the stream replayed on
 * a shared LLC — measuring the cache interference between programs
 * under the baseline and uniDoppelgänger organizations.
 *
 * Usage: multiprogram [workloadA] [workloadB] [scale]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/doppelganger_cache.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "sim/trace.hh"
#include "util/env.hh"
#include "util/fileio.hh"

using namespace dopp;

namespace
{

std::string
record(const std::string &workload, double scale, const std::string &path)
{
    RunConfig cfg;
    cfg.workload.scale = scale;
    cfg.tracePath = path;
    const RunResult r = runWorkload(workload, cfg);
    std::printf("recorded %s: %llu accesses\n", workload.c_str(),
                static_cast<unsigned long long>(
                    r.stats.counter("hierarchy.accesses")));
    return path;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string a = argc > 1 ? argv[1] : "kmeans";
    const std::string b = argc > 2 ? argv[2] : "canneal";
    const double scale =
        argc > 3 ? parsePositiveDouble("scale", argv[3]) : 0.5;

    // This process's own traces: concurrent runs never share a path.
    static const ScratchDir dir("dopp-mp");
    const std::string ta = record(a, scale, dir.path() + "/a.dopptrc");
    const std::string tb = record(b, scale, dir.path() + "/b.dopptrc");
    const std::string merged = dir.path() + "/merged.dopptrc";
    const u64 total = interleaveTraces({ta, tb}, merged);
    std::printf("merged multiprogram trace: %llu accesses\n\n",
                static_cast<unsigned long long>(total));

    TextTable table;
    table.header({"system", "LLC miss rate", "avg latency",
                  "off-chip blocks"});

    auto replayOn = [&](const std::string &label,
                        const std::string &trace, bool uniDopp) {
        MainMemory mem;
        ApproxRegistry reg;
        std::unique_ptr<LastLevelCache> llc;
        if (uniDopp) {
            DoppConfig dc;
            dc.unified = true;
            dc.tagEntries = 32 * 1024;
            dc.dataEntries = 8 * 1024;
            llc = std::make_unique<DoppelgangerCache>(mem, dc, &reg);
        } else {
            llc = std::make_unique<ConventionalLlc>(
                mem, 2 * 1024 * 1024, 16, 6, &reg);
        }
        MemorySystem sys(HierarchyConfig{}, *llc, mem);
        TraceReader rd(trace);
        const ReplayStats stats = replayTrace(rd, sys);
        table.row({label, pct(llc->stats().missRate()),
                   strfmt("%.2f cycles", stats.avgLatency()),
                   strfmt("%llu", static_cast<unsigned long long>(
                       mem.traffic()))});
    };

    replayOn(a + " alone (baseline LLC)", ta, false);
    replayOn(b + " alone (baseline LLC)", tb, false);
    replayOn(a + "+" + b + " shared (baseline LLC)", merged, false);
    replayOn(a + "+" + b + " shared (uniDopp 1/4)", merged, true);

    table.print("multiprogrammed LLC sharing");
    std::printf("\nThe merged rows show the interference two programs "
                "inflict on one\nshared LLC; per-application range "
                "registration (the registry) is what\nthe paper says "
                "makes Doppelgänger multiprogramming-ready.\n");
    return 0;
}
