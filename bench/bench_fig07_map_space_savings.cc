/**
 * @file
 * Fig 7: approximate-data storage savings under Doppelgänger map
 * clustering, for 12-, 13- and 14-bit map spaces.
 *
 * Methodology (paper Sec 5.1): snapshot the baseline 2 MB LLC; blocks
 * with equal map values share one data entry; savings is the removable
 * fraction of approximate blocks, averaged over snapshots. Paper
 * averages: 65.2% (12-bit) and 37.9% (14-bit).
 */

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const std::vector<std::string> analyses = {"map12", "map13", "map14"};
    const auto &names = workloadNames();

    std::vector<RunConfig> configs;
    for (const std::string &name : names)
        configs.push_back(snapshotConfig(name, analyses));
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable table;
    table.header({"benchmark", "12-bit map", "13-bit map", "14-bit map"});

    double sums[3] = {};
    for (size_t w = 0; w < names.size(); ++w) {
        double mean[3];
        for (size_t i = 0; i < 3; ++i) {
            mean[i] = snapshotMean(results[w], analyses[i]);
            sums[i] += mean[i];
        }
        table.row({names[w], pct(mean[0]), pct(mean[1]), pct(mean[2])});
    }

    const double n = static_cast<double>(names.size());
    table.row({"average", pct(sums[0] / n), pct(sums[1] / n),
               pct(sums[2] / n)});
    table.print("Fig 7: approx data storage savings vs map space size");
    std::printf("(paper averages: 65.2%% @12-bit, 37.9%% @14-bit)\n");
    return 0;
}
