/**
 * @file
 * Fig 9: application output error (a) and normalized runtime (b) as
 * the map space varies over 12/13/14 bits (base configuration
 * otherwise: 1/4 data array, Table 1) — for the paper's split
 * Doppelgänger and, as extension series on the same sweep, the two
 * map-indexed factory organizations: uniDoppBdi (unified Dopp with
 * B∆I-provisioned data array) and approxDedup (threshold-match dedup,
 * where mapBits sets the quantization grid).
 *
 * Paper shape (split Dopp): error decreases with a larger map space
 * and stays near or below 10% at 14 bits except ferret and swaptions;
 * runtime stays within a few percent of the baseline.
 */

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const unsigned mapBits[] = {12, 13, 14};
    struct Org
    {
        const char *label; ///< table label
        const char *name;  ///< factory name
    };
    const Org orgs[] = {
        {"split Dopp", "split-doppelganger"},
        {"uniDoppBdi", "uniDoppBdi"},
        {"approxDedup", "approxDedup"},
    };
    const auto &names = workloadNames();

    // Per workload: the baseline run, then one run per (org, map size).
    const size_t kOrgs = std::size(orgs);
    const size_t kBits = std::size(mapBits);
    const size_t stride = 1 + kOrgs * kBits;
    std::vector<RunConfig> configs;
    for (const auto &name : names) {
        configs.push_back(defaultConfig(name));
        for (const Org &org : orgs) {
            for (unsigned bits : mapBits) {
                RunConfig cfg = defaultConfig(name, org.name);
                cfg.mapBits = bits;
                cfg.dataFraction = 0.25;
                configs.push_back(std::move(cfg));
            }
        }
    }
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable err;
    err.header({"benchmark", "organization", "error @12-bit",
                "error @13-bit", "error @14-bit"});
    TextTable rt;
    rt.header({"benchmark", "organization", "runtime @12-bit",
               "runtime @13-bit", "runtime @14-bit"});

    std::vector<std::vector<double>> rtSum(
        kOrgs, std::vector<double>(kBits, 0.0));
    for (size_t w = 0; w < names.size(); ++w) {
        const RunResult &baseline = results[w * stride];
        for (size_t o = 0; o < kOrgs; ++o) {
            std::vector<std::string> erow = {names[w], orgs[o].label};
            std::vector<std::string> rrow = {names[w], orgs[o].label};
            for (size_t i = 0; i < kBits; ++i) {
                const RunResult &r =
                    results[w * stride + 1 + o * kBits + i];
                const double error = workloadOutputError(
                    names[w], r.output, baseline.output);
                const double norm = normalizedRuntime(r, baseline);
                erow.push_back(pct(error));
                rrow.push_back(strfmt("%.3f", norm));
                rtSum[o][i] += norm;
            }
            err.row(std::move(erow));
            rt.row(std::move(rrow));
        }
    }

    const double n = static_cast<double>(names.size());
    for (size_t o = 0; o < kOrgs; ++o) {
        rt.row({"average", orgs[o].label,
                strfmt("%.3f", rtSum[o][0] / n),
                strfmt("%.3f", rtSum[o][1] / n),
                strfmt("%.3f", rtSum[o][2] / n)});
    }

    err.print("Fig 9a: output error vs map space size (split Dopp + "
              "factory organizations, 1/4 data array)");
    rt.print("Fig 9b: normalized runtime vs map space size");
    std::printf("(paper, split Dopp only: error ~10%% or lower at "
                "14-bit except ferret/swaptions; runtime within ~1%% "
                "across map sizes)\n");
    return 0;
}
