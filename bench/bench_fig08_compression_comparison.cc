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

#include <array>

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const auto &names = workloadNames();
    const size_t cap = snapshotCap();

    constexpr size_t kCols = 6;
    std::vector<std::array<SnapshotAverager, kCols>> avg(names.size());
    std::vector<RunConfig> configs;
    for (size_t w = 0; w < names.size(); ++w) {
        RunConfig cfg = defaultConfig(names[w]);
        cfg.snapshotPeriod = snapshotPeriod();
        auto *a = &avg[w];
        cfg.onSnapshot = [a, cap](const Snapshot &snap) {
            const Snapshot thin = thinSnapshot(snap, cap);
            (*a)[0].sample(bdiSavings(thin));
            (*a)[1].sample(dedupSavings(thin));
            (*a)[2].sample(mapSavings(thin, 14));
            (*a)[3].sample(doppBdiSavings(thin, 14));
            (*a)[4].sample(gdishSavings(thin));
            (*a)[5].sample(approxDedupSavings(thin, 14));
        };
        configs.push_back(std::move(cfg));
    }
    runCampaign(configs);

    TextTable table;
    table.header({"benchmark", "BdI", "exact dedup", "14-bit Dopp",
                  "14-bit Dopp + BdI", "GDISH", "14-bit approx dedup"});

    double sums[kCols] = {};
    for (size_t w = 0; w < names.size(); ++w) {
        table.row({names[w], pct(avg[w][0].mean()),
                   pct(avg[w][1].mean()), pct(avg[w][2].mean()),
                   pct(avg[w][3].mean()), pct(avg[w][4].mean()),
                   pct(avg[w][5].mean())});
        for (size_t i = 0; i < kCols; ++i)
            sums[i] += avg[w][i].mean();
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
