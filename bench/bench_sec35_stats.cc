/**
 * @file
 * Sec 3.5 statistics: the paper reports that "on average 4.4 tags map
 * to a single data entry, and only 5.1% of evicted blocks are dirty
 * upon a replacement" for the base split configuration. This bench
 * measures both per workload: the end-of-run tag/data occupancy ratio,
 * the average tags linked to each *evicted* data entry, and the dirty
 * fraction of evictions.
 */

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

int
main()
{
    const auto &names = workloadNames();
    std::vector<RunConfig> configs;
    for (const auto &name : names) // base config: 14-bit, 1/4
        configs.push_back(defaultConfig(name, "split-doppelganger"));
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable table;
    table.header({"benchmark", "tags per data entry (resident)",
                  "tags per evicted entry", "dirty evictions"});

    double occSum = 0.0;
    double dirtySum = 0.0;
    u64 dirtyWorkloads = 0;
    for (size_t w = 0; w < names.size(); ++w) {
        // The split's Doppelgänger half.
        const StatSnapshot &s = results[w].stats;
        const u64 evictions = s.counter("llc.dopp.evictions");
        const u64 samples = s.counter("llc.dopp.linkedTagsSamples");
        const double dirtyFrac = evictions
            ? static_cast<double>(s.counter("llc.dopp.dirtyWritebacks")) /
                static_cast<double>(evictions)
            : 0.0;
        const double occupancy = s.value("run.tagsPerDataEntry");

        table.row({names[w], strfmt("%.2f", occupancy),
                   samples
                       ? strfmt("%.2f",
                                static_cast<double>(s.counter(
                                    "llc.dopp.linkedTagsSum")) /
                                    static_cast<double>(samples))
                       : "- (no data evictions)",
                   evictions ? pct(dirtyFrac) : "-"});
        occSum += occupancy;
        if (evictions) {
            dirtySum += dirtyFrac;
            ++dirtyWorkloads;
        }
    }

    table.row({"average",
               strfmt("%.2f", occSum / static_cast<double>(
                                  names.size())),
               "-",
               dirtyWorkloads
                   ? pct(dirtySum / static_cast<double>(dirtyWorkloads))
                   : "-"});
    table.print("Sec 3.5 statistics (base split configuration)");
    std::printf("(paper: on average 4.4 tags map to a single data "
                "entry; 5.1%% of evicted blocks are dirty)\n");
    return 0;
}
