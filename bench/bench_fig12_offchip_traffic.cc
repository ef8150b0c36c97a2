/**
 * @file
 * Fig 12: off-chip memory traffic of the split Doppelgänger LLC,
 * normalized to the 2 MB baseline, for 1/2, 1/4 and 1/8 data arrays —
 * extended with the three factory organizations at the base
 * configuration (uniDoppBdi and approxDedup at 1/4 before their own
 * provisioning rules apply, gdish at full budget), so every registered
 * organization shows up in the differential and sliced-identity CI
 * gates that diff this binary's stdout.
 *
 * Paper shape (split Dopp): minimal impact — +1.1% (1/2) and +3.4%
 * (1/4) on average.
 */

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const double fractions[] = {0.5, 0.25, 0.125};
    const char *extraOrgs[] = {"uniDoppBdi", "approxDedup", "gdish"};
    const auto &names = workloadNames();

    const size_t kFractions = std::size(fractions);
    const size_t kExtras = std::size(extraOrgs);
    const size_t stride = 1 + kFractions + kExtras;
    std::vector<RunConfig> configs;
    for (const auto &name : names) {
        configs.push_back(defaultConfig(name));
        for (double fraction : fractions) {
            RunConfig cfg = defaultConfig(name, "split-doppelganger");
            cfg.dataFraction = fraction;
            configs.push_back(std::move(cfg));
        }
        for (const char *org : extraOrgs) {
            RunConfig cfg = defaultConfig(name, org);
            cfg.dataFraction = 0.25;
            configs.push_back(std::move(cfg));
        }
    }
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable table;
    table.header({"benchmark", "traffic @1/2", "traffic @1/4",
                  "traffic @1/8", "uniDoppBdi", "approxDedup",
                  "gdish"});

    double sums[6] = {};
    for (size_t w = 0; w < names.size(); ++w) {
        const RunResult &baseline = results[w * stride];
        std::vector<std::string> row = {names[w]};
        for (size_t i = 0; i < kFractions + kExtras; ++i) {
            const RunResult &r = results[w * stride + 1 + i];
            const double norm =
                static_cast<double>(offChipTraffic(r)) /
                static_cast<double>(
                    std::max<u64>(offChipTraffic(baseline), 1));
            row.push_back(strfmt("%.3f", norm));
            sums[i] += norm;
        }
        table.row(std::move(row));
    }

    const double n = static_cast<double>(names.size());
    table.row({"average", strfmt("%.3f", sums[0] / n),
               strfmt("%.3f", sums[1] / n), strfmt("%.3f", sums[2] / n),
               strfmt("%.3f", sums[3] / n), strfmt("%.3f", sums[4] / n),
               strfmt("%.3f", sums[5] / n)});
    table.print("Fig 12: off-chip memory traffic normalized to "
                "baseline");
    std::printf("(paper averages, split Dopp: 1.011 @1/2, 1.034 @1/4; "
                "factory organizations are extensions)\n");
    return 0;
}
