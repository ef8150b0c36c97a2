/**
 * @file
 * Ablations of DESIGN.md §7: design choices the paper fixes (or defers
 * to future work), isolated one at a time on a representative workload
 * subset, all at the base configuration (14-bit map, 1/4 data array):
 *
 *  - map hash function: average+range (paper) vs average-only vs
 *    range-only (Sec 3.7 "other hash functions are possible");
 *  - data-array set indexing: XOR-folded (our default) vs the paper's
 *    raw low map bits;
 *  - data-array replacement: LRU (paper) vs FIFO vs random (Sec 3.5
 *    "replacement variants left for future work").
 */

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

namespace
{

const std::vector<std::string> subset = {"jpeg", "canneal",
                                         "inversek2j", "kmeans"};

struct Variant
{
    std::string label;
    std::function<void(RunConfig &)> apply;
};

void
runSuite(const std::string &title, const std::vector<Variant> &variants)
{
    // Per workload: one baseline run, then one run per variant.
    const size_t stride = 1 + variants.size();
    std::vector<RunConfig> configs;
    for (const auto &name : subset) {
        configs.push_back(defaultConfig(name));
        for (const auto &v : variants) {
            RunConfig cfg = defaultConfig(name, "split-doppelganger");
            v.apply(cfg);
            configs.push_back(std::move(cfg));
        }
    }
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable table;
    {
        std::vector<std::string> head = {"benchmark"};
        for (const auto &v : variants) {
            head.push_back(v.label + " err");
            head.push_back(v.label + " rt");
        }
        table.header(std::move(head));
    }

    for (size_t w = 0; w < subset.size(); ++w) {
        const RunResult &baseline = results[w * stride];
        std::vector<std::string> row = {subset[w]};
        for (size_t i = 0; i < variants.size(); ++i) {
            const RunResult &r = results[w * stride + 1 + i];
            row.push_back(pct(workloadOutputError(
                subset[w], r.output, baseline.output)));
            row.push_back(
                strfmt("%.2f", normalizedRuntime(r, baseline)));
        }
        table.row(std::move(row));
    }
    table.print(title);
}

} // namespace

int
main()
{
    runSuite("Ablation: map hash function",
             {{"avg+range (paper)", [](RunConfig &) {}},
              {"avg-only",
               [](RunConfig &c) { c.hashMode = MapHashMode::AvgOnly; }},
              {"range-only", [](RunConfig &c) {
                   c.hashMode = MapHashMode::RangeOnly;
               }}});

    runSuite("Ablation: data-array set indexing",
             {{"XOR-folded (default)", [](RunConfig &) {}},
              {"raw low bits (paper Fig 4)", [](RunConfig &c) {
                   c.hashDataSetIndex = false;
               }}});

    runSuite("Ablation: data-array replacement policy",
             {{"LRU (paper)", [](RunConfig &) {}},
              {"FIFO",
               [](RunConfig &c) { c.dataPolicy = ReplPolicy::FIFO; }},
              {"random", [](RunConfig &c) {
                   c.dataPolicy = ReplPolicy::RANDOM;
               }}});

    runSuite("Ablation: map space at the extremes",
             {{"M=14 (paper)", [](RunConfig &) {}},
              {"M=10", [](RunConfig &c) { c.mapBits = 10; }},
              {"M=16", [](RunConfig &c) { c.mapBits = 16; }}});

    runSuite("Ablation: tag-count-aware data replacement (Sec 3.5 "
             "future work), 1/8 data array",
             {{"LRU (paper)",
               [](RunConfig &c) { c.dataFraction = 0.125; }},
              {"fewest-tags-first", [](RunConfig &c) {
                   c.dataFraction = 0.125;
                   c.tagCountAwareData = true;
               }}});

    runSuite("Lossless organizations (error must be zero)",
             {{"BdI LLC", [](RunConfig &c) { c.llcName = "bdi"; }},
              {"dedup LLC", [](RunConfig &c) { c.llcName = "dedup"; }}});

    // Sec 5.2 future work: per-use ranges for swaptions' rates.
    {
        std::vector<RunConfig> configs;
        configs.push_back(defaultConfig("swaptions"));
        for (const bool perUse : {false, true}) {
            RunConfig cfg = defaultConfig("swaptions", "split-doppelganger");
            cfg.workload.perUseRanges = perUse;
            configs.push_back(std::move(cfg));
        }
        const std::vector<RunResult> results =
            runCampaign(configs);
        const RunResult &baseline = results[0];

        TextTable table;
        table.header({"swaptions annotation", "error", "runtime"});
        for (size_t i = 0; i < 2; ++i) {
            const RunResult &r = results[1 + i];
            table.row({i ? "per-use ranges (future work)"
                         : "one range per type (paper)",
                       pct(workloadOutputError("swaptions", r.output,
                                               baseline.output)),
                       strfmt("%.3f", normalizedRuntime(r, baseline))});
        }
        table.print("Ablation: shared vs per-use declared ranges "
                    "(swaptions, Sec 5.2)");
    }
    return 0;
}
