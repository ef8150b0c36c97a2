/**
 * @file
 * Fig 8: approximate-data storage savings of Doppelgänger (14-bit map)
 * against base-delta-immediate compression (B∆I) and exact
 * deduplication, plus the combined Dopp + B∆I — extended with the two
 * new sharing analyses: GDISH global-dictionary word sharing and
 * approximate (threshold-match) deduplication at the same 14-bit
 * quantization.
 *
 * Methodology (paper Sec 5.1): all measured over baseline 2 MB
 * LLC snapshots, approximate blocks only. Paper averages: B∆I 20.9%,
 * exact dedup 5.3%, 14-bit Dopp 37.9%, Dopp+B∆I 43.9% (the GDISH and
 * approx-dedup columns have no paper counterpart; they position the
 * new organizations on the same axis).
 */

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const std::vector<std::string> analyses = {
        "bdi", "dedup", "map14", "doppBdi14", "gdish", "approxDedup14"};
    const auto &names = workloadNames();

    std::vector<RunConfig> configs;
    for (const std::string &name : names)
        configs.push_back(snapshotConfig(name, analyses));
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable table;
    table.header({"benchmark", "BdI", "exact dedup", "14-bit Dopp",
                  "14-bit Dopp + BdI", "GDISH", "14-bit approx dedup"});

    constexpr size_t kCols = 6;
    double sums[kCols] = {};
    for (size_t w = 0; w < names.size(); ++w) {
        std::vector<std::string> row = {names[w]};
        for (size_t i = 0; i < kCols; ++i) {
            const double mean = snapshotMean(results[w], analyses[i]);
            row.push_back(pct(mean));
            sums[i] += mean;
        }
        table.row(std::move(row));
    }

    const double n = static_cast<double>(names.size());
    table.row({"average", pct(sums[0] / n), pct(sums[1] / n),
               pct(sums[2] / n), pct(sums[3] / n), pct(sums[4] / n),
               pct(sums[5] / n)});
    table.print("Fig 8: Doppelganger vs BdI vs dedup vs GDISH vs "
                "approx dedup");
    std::printf("(paper averages: BdI 20.9%%, dedup 5.3%%, Dopp 37.9%%, "
                "Dopp+BdI 43.9%%; GDISH / approx dedup are extensions)\n");
    return 0;
}
