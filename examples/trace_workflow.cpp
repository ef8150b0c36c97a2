/**
 * @file
 * Trace workflow example: the Pin-style record-once/replay-many
 * methodology. Records a canneal run's memory accesses to a trace
 * file, then replays the identical access stream against several LLC
 * organizations and sizes, comparing miss rates and average latency —
 * no workload re-execution needed.
 *
 * Usage: trace_workflow [workload] [scale] [trace_path]
 *   trace_path defaults to a file in a private temporary directory,
 *   removed at exit.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "compress/bdi_llc.hh"
#include "compress/dedup.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "sim/trace.hh"
#include "util/env.hh"
#include "util/fileio.hh"

using namespace dopp;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "canneal";
    const double scale =
        argc > 2 ? parsePositiveDouble("scale", argv[2]) : 0.5;
    static const ScratchDir dir("dopp-trace");
    const std::string path =
        argc > 3 ? argv[3] : dir.path() + "/example.dopptrc";

    std::printf("recording a %s run (scale %.2f) to %s ...\n",
                workload.c_str(), scale, path.c_str());
    RunConfig cfg;
    cfg.workload.scale = scale;
    cfg.tracePath = path;
    const RunResult original = runWorkload(workload, cfg);
    std::printf("recorded %llu accesses (runtime %llu cycles)\n\n",
                static_cast<unsigned long long>(
                    original.stats.counter("hierarchy.accesses")),
                static_cast<unsigned long long>(
                    original.stats.counter("run.runtimeCycles")));

    TextTable table;
    table.header({"replayed on", "LLC miss rate", "avg access latency",
                  "off-chip blocks"});

    auto replay = [&](const std::string &label,
                      LastLevelCache &llc, MainMemory &mem) {
        MemorySystem sys(HierarchyConfig{}, llc, mem);
        TraceReader rd(path);
        const ReplayStats stats = replayTrace(rd, sys);
        table.row({label, pct(llc.stats().missRate()),
                   strfmt("%.2f cycles", stats.avgLatency()),
                   strfmt("%llu", static_cast<unsigned long long>(
                       mem.traffic()))});
    };

    {
        MainMemory mem;
        ApproxRegistry reg;
        ConventionalLlc llc(mem, 2 * 1024 * 1024, 16, 6, &reg);
        replay("conventional 2MB", llc, mem);
    }
    {
        MainMemory mem;
        ApproxRegistry reg;
        ConventionalLlc llc(mem, 1024 * 1024, 16, 6, &reg);
        replay("conventional 1MB", llc, mem);
    }
    {
        MainMemory mem;
        BdiLlcConfig bc;
        BdiLlc llc(mem, bc, nullptr);
        replay("BdI-compressed 2MB", llc, mem);
    }
    {
        // Exact dedup: a decoupled engine mapped by content hash.
        MainMemory mem;
        DoppConfig dc;
        dc.tagEntries = 32 * 1024;
        dc.dataEntries = 16 * 1024;
        dc.mapOverride = dedupContentHash;
        DoppelgangerCache llc(mem, dc, nullptr);
        replay("dedup 2MB-tag / 1MB-data", llc, mem);
    }
    {
        // Note: replay carries addresses but no annotation registry,
        // so the Doppelgänger cache treats all data under its default
        // range — useful for occupancy studies, not error studies.
        MainMemory mem;
        DoppConfig dc;
        dc.unified = true;
        dc.tagEntries = 32 * 1024;
        dc.dataEntries = 8 * 1024;
        DoppelgangerCache llc(mem, dc, nullptr);
        replay("uniDoppelganger 1/4 (default range)", llc, mem);
    }

    table.print("trace replay: one access stream, five LLCs");
    std::printf("\nThe trace file decouples workload execution from "
                "cache studies,\nthe same way the paper's Pin traces "
                "feed its cache model.\n");
    return 0;
}
