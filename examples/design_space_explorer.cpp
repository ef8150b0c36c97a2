/**
 * @file
 * Design-space explorer: run one benchmark across LLC organizations
 * and map-space/data-array configurations, printing runtime, output
 * error, off-chip traffic and energy — the paper's whole evaluation in
 * one command for a single workload.
 *
 * Usage: design_space_explorer [workload] [scale]
 *   workload: one of the nine benchmark names (default: jpeg)
 *   scale:    input-size multiplier (default: 0.5)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "energy/energy_model.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"

using namespace dopp;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "jpeg";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;

    RunConfig base;
    base.workload.scale = scale;

    std::printf("running '%s' (scale %.2f) on the baseline 2 MB LLC...\n",
                workload.c_str(), scale);
    const RunResult baseline = runWorkload(workload, base);
    const EnergyModel energy;
    const EnergyResult baseE =
        energy.baseline(baseline.llc, baseline.runtime);

    TextTable table;
    table.header({"organization", "config", "runtime", "error",
                  "LLC miss%", "off-chip blks", "dyn energy", "leakage"});
    table.row({"baseline 2MB", "-", "1.000", "0.000%",
               pct(baseline.llc.missRate()),
               strfmt("%llu", static_cast<unsigned long long>(
                   baseline.offChipTraffic())),
               "1.000", "1.000"});

    struct Point
    {
        std::string org;
        unsigned mapBits;
        double fraction;
    };
    const Point points[] = {
        {"split-doppelganger", 12, 0.25}, {"split-doppelganger", 14, 0.50},
        {"split-doppelganger", 14, 0.25}, {"split-doppelganger", 14, 0.125},
        {"uniDoppelganger", 14, 0.50},    {"uniDoppelganger", 14, 0.25},
    };

    for (const auto &p : points) {
        RunConfig cfg = base;
        cfg.llcName = p.org;
        cfg.mapBits = p.mapBits;
        cfg.dataFraction = p.fraction;
        const RunResult r = runWorkload(workload, cfg);

        EnergyResult e;
        if (p.org == "split-doppelganger") {
            e = energy.split(r.preciseHalf, r.doppHalf, r.doppConfig,
                             r.runtime);
        } else {
            e = energy.unified(r.llc, r.doppConfig, r.runtime);
        }

        const double error =
            workloadOutputError(workload, r.output, baseline.output);

        table.row({
            p.org,
            strfmt("M=%u, %g data", p.mapBits, p.fraction),
            strfmt("%.3f", static_cast<double>(r.runtime) /
                               static_cast<double>(baseline.runtime)),
            pct(error, 2),
            pct(r.llc.missRate()),
            strfmt("%llu",
                   static_cast<unsigned long long>(r.offChipTraffic())),
            strfmt("%.3f", e.dynamicPj / baseE.dynamicPj),
            strfmt("%.3f", e.leakagePj / baseE.leakagePj),
        });
    }
    table.print("design space for " + workload);
    return 0;
}
