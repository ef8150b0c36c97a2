/**
 * @file
 * Financial-pricing example: the paper's other workload family.
 * Prices an option portfolio (blackscholes) and a swaption book
 * (swaptions) on every LLC organization, showing the two ends of
 * Table 2's spectrum side by side:
 *
 *  - blackscholes: 60%+ approximate footprint with heavy exact
 *    redundancy — Doppelgänger and even exact dedup both shine;
 *  - swaptions: a ~1.5% approximate footprint whose shared f32 range
 *    coarsens interest rates — the paper's cautionary tale (Sec 5.2).
 *
 * Usage: financial_pricing [scale]
 */

#include <cstdio>
#include <cstdlib>

#include "energy/energy_model.hh"
#include "harness/experiment.hh"
#include "harness/report.hh"
#include "util/env.hh"

using namespace dopp;

namespace
{

void
runFamily(const char *workload, double scale)
{
    RunConfig base;
    base.workload.scale = scale;
    const RunResult baseline = runWorkload(workload, base);
    const EnergyModel energy;
    const EnergyResult baseE = energy.baseline(baseline.stats, "llc");

    TextTable table;
    table.header({"organization", "price error", "runtime",
                  "LLC dyn energy", "approx sharing"});
    table.row({"baseline (precise)", "0.00%", "1.000", "1.000x", "-"});

    for (const std::string org : {"dedup", "split-doppelganger",
                                  "uniDoppelganger"}) {
        RunConfig cfg = base;
        cfg.llcName = org;
        if (org == "uniDoppelganger")
            cfg.dataFraction = 0.5;
        const RunResult r = runWorkload(workload, cfg);
        const double err =
            workloadOutputError(workload, r.output, baseline.output);

        double dynReduction = 1.0;
        if (org == "split-doppelganger") {
            dynReduction = baseE.dynamicPj /
                energy.split(r.stats, "llc.precise", "llc.dopp",
                             r.doppConfig).dynamicPj;
        } else if (org == "uniDoppelganger") {
            dynReduction = baseE.dynamicPj /
                energy.unified(r.stats, "llc", r.doppConfig).dynamicPj;
        }
        const double sharing = r.stats.value("run.tagsPerDataEntry");
        table.row({
            org,
            pct(err, 2),
            strfmt("%.3f",
                   static_cast<double>(
                       r.stats.counter("run.runtimeCycles")) /
                       static_cast<double>(
                           baseline.stats.counter("run.runtimeCycles"))),
            org == "dedup" ? "-" : times(dynReduction),
            sharing > 0.0 ? strfmt("%.2f tags/entry", sharing) : "-",
        });
    }
    table.print(std::string(workload) + " pricing across LLC designs");
}

} // namespace

int
main(int argc, char **argv)
{
    const double scale =
        argc > 1 ? parsePositiveDouble("scale", argv[1]) : 1.0;
    runFamily("blackscholes", scale);
    runFamily("swaptions", scale);
    std::printf("\nNote how blackscholes tolerates approximation (and "
                "even deduplicates\nexactly), while swaptions' error "
                "concentrates in its coarsely-binned\nrates — the "
                "paper's Sec 5.2 discussion reproduced end to end.\n");
    return 0;
}
