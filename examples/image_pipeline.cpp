/**
 * @file
 * Image-pipeline example: the paper's motivating scenario (Fig 1) as a
 * runnable program. A synthetic photograph flows through a JPEG-style
 * encode/decode pipeline twice — once on a precise baseline LLC and
 * once on a split Doppelgänger LLC — and the example reports pixel
 * error, how many image blocks shared a data entry, and the storage
 * the approximate data array actually used.
 *
 * Usage: image_pipeline [map_bits] [data_fraction]
 *   map_bits:      Doppelgänger map-space size (default 14)
 *   data_fraction: data entries / tag entries (default 0.25)
 */

#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "util/env.hh"

using namespace dopp;

int
main(int argc, char **argv)
{
    const unsigned mapBits = argc > 1
        ? static_cast<unsigned>(parseU64("map_bits", argv[1], 1, 30))
        : 14;
    const double fraction =
        argc > 2 ? parsePositiveDouble("data_fraction", argv[2]) : 0.25;

    RunConfig base;
    base.workload.scale = 1.0;
    RunConfig cfg = base;
    cfg.llcName = "split-doppelganger";
    cfg.mapBits = mapBits;
    cfg.dataFraction = fraction;
    // A layout the engine cannot build is fatal here, before the
    // baseline run.
    resolvedSliceConfig(cfg);

    std::printf("JPEG pipeline on the baseline 2 MB LLC...\n");
    const RunResult precise = runWorkload("jpeg", base);

    std::printf("JPEG pipeline on the split Doppelgänger LLC "
                "(M=%u, %g data array)...\n",
                mapBits, fraction);
    const RunResult dopp = runWorkload("jpeg", cfg);

    const double error =
        workloadOutputError("jpeg", dopp.output, precise.output);
    // The split's Doppelgänger half counts under "llc.dopp".
    const StatSnapshot &s = dopp.stats;
    const u64 evictedEntries = s.counter("llc.dopp.linkedTagsSamples");

    std::printf("\n-- results --\n");
    std::printf("mean pixel error:            %s\n",
                pct(error, 2).c_str());
    std::printf("normalized runtime:          %.3f\n",
                static_cast<double>(s.counter("run.runtimeCycles")) /
                    static_cast<double>(
                        precise.stats.counter("run.runtimeCycles")));
    std::printf("tags per shared data entry:  %.2f (paper avg: 4.4)\n",
                s.value("run.tagsPerDataEntry"));
    std::printf("avg tags on evicted entries: %.2f\n",
                evictedEntries
                    ? static_cast<double>(
                          s.counter("llc.dopp.linkedTagsSum")) /
                        static_cast<double>(evictedEntries)
                    : 0.0);
    std::printf("LLC misses baseline/dopp:    %llu / %llu\n",
                static_cast<unsigned long long>(
                    precise.stats.counter("llc.fetchMisses")),
                static_cast<unsigned long long>(
                    s.counter("llc.fetchMisses")));
    std::printf("map generations:             %llu (x168 pJ)\n",
                static_cast<unsigned long long>(
                    s.counter("llc.dopp.mapGens")));
    std::printf("\nAn output error of a few percent for a pipeline "
                "whose pixels, DCT\ncoefficients and output all lived "
                "in a %gx smaller data array is the\npaper's "
                "headline trade (Sec 5.7).\n",
                1.0 / fraction);
    return 0;
}
