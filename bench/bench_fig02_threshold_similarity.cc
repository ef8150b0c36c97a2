/**
 * @file
 * Fig 2: approximate-data storage savings as the element-wise
 * similarity threshold T is relaxed (0%, 0.01%, 0.1%, 1%, 10%).
 *
 * Methodology (paper Sec 2): snapshot the baseline 2 MB LLC
 * periodically during execution; two approximate blocks are similar if
 * every element pair differs by ≤ T × declared range; savings is the
 * fraction of approximate blocks removable when similar blocks share
 * one data entry, averaged over snapshots.
 */

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const std::vector<std::string> labels = {"0%", "0.01%", "0.1%", "1%",
                                             "10%"};
    const std::vector<std::string> analyses = {
        "threshold0", "threshold1e-4", "threshold1e-3", "threshold1e-2",
        "threshold1e-1"};
    const auto &names = workloadNames();

    std::vector<RunConfig> configs;
    for (const std::string &name : names)
        configs.push_back(snapshotConfig(name, analyses));
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable table;
    {
        std::vector<std::string> head = {"benchmark"};
        for (const std::string &label : labels)
            head.push_back("T=" + label);
        table.header(std::move(head));
    }

    std::vector<double> sums(analyses.size(), 0.0);
    for (size_t w = 0; w < names.size(); ++w) {
        std::vector<std::string> row = {names[w]};
        for (size_t i = 0; i < analyses.size(); ++i) {
            const double mean = snapshotMean(results[w], analyses[i]);
            row.push_back(pct(mean));
            sums[i] += mean;
        }
        table.row(std::move(row));
    }

    std::vector<std::string> mean = {"average"};
    for (double s : sums)
        mean.push_back(pct(s / static_cast<double>(names.size())));
    table.row(std::move(mean));

    table.print("Fig 2: approx data storage savings vs similarity "
                "threshold T");
    std::printf("(paper: near-zero at T=0%% except blackscholes/"
                "swaptions; rising with T)\n");
    return 0;
}
