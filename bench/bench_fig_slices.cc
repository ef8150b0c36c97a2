/**
 * @file
 * Sliced-LLC characterization (DESIGN.md §15): what slicing the LLC
 * does to each organization, and what the Doppelgänger map space
 * loses when it is partitioned per slice.
 *
 * Three tables:
 *  1. Off-chip traffic vs slice count for every registered
 *     organization (bit-select hash), normalized to the unsliced
 *     build. Slicing fragments each organization's capacity and —
 *     for the content-indexed organizations — its dedup pool, so
 *     traffic drifts up with the slice count.
 *  2. Slice-hash policy comparison on the split Doppelgänger
 *     organization: bit-select (block-number modulo) against the
 *     reconstructed Sandy Bridge XOR hash at 2/4/8 slices.
 *  3. Per-slice vs shared map-space similarity series: the split
 *     organization's tags-per-data-entry (how many similar blocks
 *     share one data entry) and output error when each slice keeps
 *     the full map space versus dropping log2(N) map bits — the
 *     organization trade-off MapSpaceMode models.
 *
 * Environment knobs (besides common.hh's):
 *   DOPP_SLICE_WORKLOADS  comma-separated workload subset
 *                         (default blackscholes,kmeans)
 */

#include <cstdlib>
#include <sstream>

#include "common.hh"
#include "harness/llc_factory.hh"

using namespace dopp;
using namespace dopp::bench;

namespace
{

std::vector<std::string>
sweepWorkloads()
{
    const char *env = std::getenv("DOPP_SLICE_WORKLOADS");
    if (!env)
        return {"blackscholes", "kmeans"};
    std::vector<std::string> names;
    std::stringstream ss(env);
    std::string name;
    while (std::getline(ss, name, ','))
        if (!name.empty())
            names.push_back(name);
    return names;
}

constexpr u32 sliceCounts[] = {2, 4, 8};

} // namespace

int
main()
{
    const std::vector<std::string> workloads = sweepWorkloads();
    registerBuiltinLlcs();
    const std::vector<std::string> orgs = registeredLlcNames();

    // One flat campaign; indices are derivable from the layout below.
    // Per workload:
    //   [0]                      precise baseline (error reference)
    //   [1 + o*4 + 0]            org o unsliced
    //   [1 + o*4 + 1 + c]        org o, bitselect, sliceCounts[c]
    //   [base2 + c]              split, sandybridge, sliceCounts[c]
    //   [base3 + c]              split, bitselect, per-slice map space
    const size_t perOrg = 1 + 3;
    const size_t base2 = 1 + orgs.size() * perOrg;
    const size_t base3 = base2 + 3;
    const size_t stride = base3 + 3;

    std::vector<RunConfig> configs;
    for (const std::string &w : workloads) {
        configs.push_back(defaultConfig(w));

        for (const std::string &org : orgs) {
            configs.push_back(defaultConfig(w, org));
            for (u32 count : sliceCounts) {
                RunConfig cfg = defaultConfig(w, org);
                cfg.sliceCount = count;
                configs.push_back(std::move(cfg));
            }
        }
        for (u32 count : sliceCounts) {
            RunConfig cfg = defaultConfig(w, "split-doppelganger");
            cfg.sliceCount = count;
            cfg.sliceHash = "sandybridge";
            configs.push_back(std::move(cfg));
        }
        for (u32 count : sliceCounts) {
            RunConfig cfg = defaultConfig(w, "split-doppelganger");
            cfg.sliceCount = count;
            cfg.mapSpaceMode = MapSpaceMode::PerSlice;
            configs.push_back(std::move(cfg));
        }
    }
    const std::vector<RunResult> results = runCampaign(configs);

    auto at = [&](size_t w, size_t off) -> const RunResult & {
        return results[w * stride + off];
    };
    auto traffic = [](const RunResult &r) {
        return static_cast<double>(offChipTraffic(r));
    };

    // Table 1: traffic vs slice count per organization, averaged over
    // workloads, normalized to each organization's unsliced run.
    TextTable t1;
    t1.header({"organization", "unsliced", "2 slices", "4 slices",
               "8 slices"});
    for (size_t o = 0; o < orgs.size(); ++o) {
        double norm[3] = {};
        for (size_t w = 0; w < workloads.size(); ++w) {
            const double flat = traffic(at(w, 1 + o * perOrg));
            for (size_t c = 0; c < 3; ++c)
                norm[c] += traffic(at(w, 1 + o * perOrg + 1 + c)) /
                    std::max(flat, 1.0);
        }
        const double n = static_cast<double>(workloads.size());
        t1.row({orgs[o], "1.000", strfmt("%.3f", norm[0] / n),
                strfmt("%.3f", norm[1] / n),
                strfmt("%.3f", norm[2] / n)});
    }
    t1.print("Sliced LLC: off-chip traffic vs slice count "
             "(bit-select hash, normalized to unsliced)");

    // Table 2: hash policies on the split organization. The split
    // organization's bitselect rows live in the per-org section.
    const size_t splitIdx = [&] {
        for (size_t o = 0; o < orgs.size(); ++o)
            if (orgs[o] == "split-doppelganger")
                return o;
        fatal("split organization missing from the factory");
    }();
    TextTable t2;
    t2.header({"benchmark", "hash", "2 slices", "4 slices",
               "8 slices", "error @8"});
    for (size_t w = 0; w < workloads.size(); ++w) {
        const RunResult &precise = at(w, 0);
        const double flat =
            traffic(at(w, 1 + splitIdx * perOrg));
        for (int hash = 0; hash < 2; ++hash) {
            std::vector<std::string> row = {
                workloads[w], hash ? "sandybridge" : "bitselect"};
            const RunResult *last = nullptr;
            for (size_t c = 0; c < 3; ++c) {
                const RunResult &r = hash
                    ? at(w, base2 + c)
                    : at(w, 1 + splitIdx * perOrg + 1 + c);
                row.push_back(strfmt(
                    "%.3f", traffic(r) / std::max(flat, 1.0)));
                last = &r;
            }
            row.push_back(pct(workloadOutputError(
                workloads[w], last->output, precise.output)));
            t2.row(std::move(row));
        }
    }
    t2.print("Sliced split Doppelgänger: slice-hash policy "
             "(traffic normalized to unsliced split)");

    // Table 3: shared vs per-slice map space. Tags per data entry is
    // the similarity-exploitation series — a coarser per-slice map
    // space clusters fewer blocks per entry.
    TextTable t3;
    t3.header({"benchmark", "map space", "tags/entry @2",
               "tags/entry @4", "tags/entry @8", "error @8"});
    for (size_t w = 0; w < workloads.size(); ++w) {
        const RunResult &precise = at(w, 0);
        for (int per = 0; per < 2; ++per) {
            std::vector<std::string> row = {
                workloads[w], per ? "per-slice" : "shared"};
            const RunResult *last = nullptr;
            for (size_t c = 0; c < 3; ++c) {
                const RunResult &r = per
                    ? at(w, base3 + c)
                    : at(w, 1 + splitIdx * perOrg + 1 + c);
                row.push_back(strfmt("%.2f", r.stats.value("run.tagsPerDataEntry")));
                last = &r;
            }
            row.push_back(pct(workloadOutputError(
                workloads[w], last->output, precise.output)));
            t3.row(std::move(row));
        }
    }
    t3.print("Sliced split Doppelgänger: shared vs per-slice map "
             "space (similarity exploitation)");
    std::printf("(shared keeps the full map space in every slice; "
                "per-slice drops log2(N) map bits, coarsening each "
                "slice's dedup pool)\n");
    return 0;
}
