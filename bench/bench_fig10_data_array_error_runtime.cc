/**
 * @file
 * Fig 10: application output error (a) and normalized runtime (b) of
 * the split Doppelgänger LLC as the approximate data array shrinks
 * (1/2, 1/4, 1/8 of the 16 K tag entries; 14-bit map space).
 *
 * Paper shape: error *decreases* as the data array shrinks (less value
 * reuse); runtime increases slightly, worst for canneal; the base 1/4
 * configuration stays within 2.3% of baseline on average.
 */

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const double fractions[] = {0.5, 0.25, 0.125};
    const auto &names = workloadNames();

    const size_t stride = 1 + 3;
    std::vector<RunConfig> configs;
    for (const auto &name : names) {
        configs.push_back(defaultConfig(name));
        for (double fraction : fractions) {
            RunConfig cfg = defaultConfig(name, "split-doppelganger");
            cfg.mapBits = 14;
            cfg.dataFraction = fraction;
            configs.push_back(std::move(cfg));
        }
    }
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable err;
    err.header({"benchmark", "error @1/2", "error @1/4", "error @1/8"});
    TextTable rt;
    rt.header({"benchmark", "runtime @1/2", "runtime @1/4",
               "runtime @1/8"});

    std::vector<double> rtSum(3, 0.0);
    for (size_t w = 0; w < names.size(); ++w) {
        const RunResult &baseline = results[w * stride];
        std::vector<std::string> erow = {names[w]};
        std::vector<std::string> rrow = {names[w]};
        for (size_t i = 0; i < 3; ++i) {
            const RunResult &r = results[w * stride + 1 + i];
            const double error = workloadOutputError(
                names[w], r.output, baseline.output);
            const double norm = static_cast<double>(r.runtime) /
                static_cast<double>(baseline.runtime);
            erow.push_back(pct(error));
            rrow.push_back(strfmt("%.3f", norm));
            rtSum[i] += norm;
        }
        err.row(std::move(erow));
        rt.row(std::move(rrow));
    }

    const double n = static_cast<double>(names.size());
    rt.row({"average", strfmt("%.3f", rtSum[0] / n),
            strfmt("%.3f", rtSum[1] / n), strfmt("%.3f", rtSum[2] / n)});

    err.print("Fig 10a: output error vs data array size (split Dopp, "
              "14-bit map)");
    rt.print("Fig 10b: normalized runtime vs data array size");
    std::printf("(paper: error falls as the array shrinks; runtime "
                "+2.3%% on average at 1/4, canneal most sensitive)\n");
    return 0;
}
