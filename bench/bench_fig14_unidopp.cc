/**
 * @file
 * Fig 14: uniDoppelgänger error (a), normalized runtime (b) and LLC
 * dynamic energy reduction (c) with 3/4, 1/2 and 1/4 data arrays
 * (fractions of the 32 K-entry tag array ≙ the 2 MB baseline).
 *
 * Paper: comparable error/runtime to the split design; at 1/4 (512 KB
 * data) 2.45× dynamic and 2.60× leakage energy reductions.
 */

#include "energy/energy_model.hh"

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const double fractions[] = {0.75, 0.5, 0.25};
    const EnergyModel energy;
    const auto &names = workloadNames();

    const size_t stride = 1 + 3;
    std::vector<RunConfig> configs;
    for (const auto &name : names) {
        configs.push_back(defaultConfig(name));
        for (double fraction : fractions) {
            RunConfig cfg = defaultConfig(name, "uniDoppelganger");
            cfg.dataFraction = fraction;
            configs.push_back(std::move(cfg));
        }
    }
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable err;
    err.header({"benchmark", "error @3/4", "error @1/2", "error @1/4"});
    TextTable rt;
    rt.header({"benchmark", "runtime @3/4", "runtime @1/2",
               "runtime @1/4"});
    TextTable dyn;
    dyn.header({"benchmark", "dynamic @3/4", "dynamic @1/2",
                "dynamic @1/4"});

    double rtSum[3] = {};
    double dynSum[3] = {};
    double leakSum[3] = {};
    for (size_t w = 0; w < names.size(); ++w) {
        const RunResult &baseline = results[w * stride];
        const EnergyResult baseE =
            energy.baseline(baseline.llc, baseline.runtime);

        std::vector<std::string> erow = {names[w]};
        std::vector<std::string> rrow = {names[w]};
        std::vector<std::string> drow = {names[w]};
        for (size_t i = 0; i < 3; ++i) {
            const RunResult &r = results[w * stride + 1 + i];
            const EnergyResult e =
                energy.unified(r.llc, r.doppConfig, r.runtime);
            const double error = workloadOutputError(
                names[w], r.output, baseline.output);
            const double norm = static_cast<double>(r.runtime) /
                static_cast<double>(baseline.runtime);
            erow.push_back(pct(error));
            rrow.push_back(strfmt("%.3f", norm));
            drow.push_back(times(baseE.dynamicPj / e.dynamicPj));
            rtSum[i] += norm;
            dynSum[i] += baseE.dynamicPj / e.dynamicPj;
            leakSum[i] += baseE.leakagePj / e.leakagePj;
        }
        err.row(std::move(erow));
        rt.row(std::move(rrow));
        dyn.row(std::move(drow));
    }

    const double n = static_cast<double>(names.size());
    rt.row({"average", strfmt("%.3f", rtSum[0] / n),
            strfmt("%.3f", rtSum[1] / n), strfmt("%.3f", rtSum[2] / n)});
    dyn.row({"average", times(dynSum[0] / n), times(dynSum[1] / n),
             times(dynSum[2] / n)});

    err.print("Fig 14a: uniDoppelganger output error");
    rt.print("Fig 14b: uniDoppelganger normalized runtime");
    dyn.print("Fig 14c: uniDoppelganger LLC dynamic energy reduction");
    std::printf("average leakage reductions: %s @3/4, %s @1/2, %s @1/4 "
                "(paper @1/4: 2.45x dynamic, 2.60x leakage)\n",
                times(leakSum[0] / n).c_str(),
                times(leakSum[1] / n).c_str(),
                times(leakSum[2] / n).c_str());
    return 0;
}
