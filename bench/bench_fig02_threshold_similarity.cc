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
    const std::vector<std::pair<std::string, double>> thresholds = {
        {"0%", 0.0},     {"0.01%", 0.0001}, {"0.1%", 0.001},
        {"1%", 0.01},    {"10%", 0.10},
    };
    const auto &names = workloadNames();
    const size_t cap = snapshotCap();

    std::vector<std::vector<SnapshotAverager>> avg(
        names.size(), std::vector<SnapshotAverager>(thresholds.size()));
    std::vector<RunConfig> configs;
    for (size_t w = 0; w < names.size(); ++w) {
        RunConfig cfg = defaultConfig(names[w]);
        cfg.snapshotPeriod = snapshotPeriod();
        auto *a = &avg[w];
        cfg.onSnapshot = [a, cap, &thresholds](const Snapshot &snap) {
            const Snapshot thin = thinSnapshot(snap, cap);
            for (size_t i = 0; i < thresholds.size(); ++i)
                (*a)[i].sample(thresholdSavings(thin,
                                                thresholds[i].second));
        };
        configs.push_back(std::move(cfg));
    }
    runCampaign(configs);

    TextTable table;
    {
        std::vector<std::string> head = {"benchmark"};
        for (const auto &[label, t] : thresholds)
            head.push_back("T=" + label);
        table.header(std::move(head));
    }

    std::vector<double> sums(thresholds.size(), 0.0);
    for (size_t w = 0; w < names.size(); ++w) {
        std::vector<std::string> row = {names[w]};
        for (size_t i = 0; i < thresholds.size(); ++i) {
            row.push_back(pct(avg[w][i].mean()));
            sums[i] += avg[w][i].mean();
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
