/**
 * @file
 * Fault-injection campaign: sweep per-operation fault rates (memory
 * data, LLC data, tag metadata, MTag metadata all at the same rate)
 * and report application output error, fault/repair tallies and the
 * QoR guardrail's effect for three organizations — the conventional
 * baseline, the split Doppelgänger LLC and uniDoppelgänger.
 *
 * Expected shape: the baseline only suffers data flips (its tag
 * metadata is ECC-protected by assumption), so its error grows slowly;
 * the decoupled organizations additionally take metadata flips whose
 * structural damage the self-check repairs at the cost of dropped tags
 * and entries. With the guardrail enabled, approximate fills degrade
 * to the precise path while the error estimate exceeds the budget, so
 * output error stays capped at the same fault rate.
 *
 * Environment knobs (besides common.hh's):
 *   DOPP_FAULT_WORKLOADS  comma-separated workload subset
 *   DOPP_QOR_BUDGET       guardrail error budget (default 0.002)
 */

#include <array>
#include <cstdlib>
#include <sstream>

#include "common.hh"

using namespace dopp;
using namespace dopp::bench;

namespace
{

FaultConfig
rateConfig(double rate)
{
    FaultConfig f;
    f.memoryRate = rate;
    f.dataRate = rate;
    f.tagMetaRate = rate;
    f.mtagMetaRate = rate;
    return f;
}

std::vector<std::string>
campaignWorkloads()
{
    const char *env = std::getenv("DOPP_FAULT_WORKLOADS");
    if (!env)
        return {"blackscholes", "kmeans", "jpeg"};
    std::vector<std::string> names;
    std::stringstream ss(env);
    std::string name;
    while (std::getline(ss, name, ','))
        if (!name.empty())
            names.push_back(name);
    return names;
}

/** Batch indices of one workload × organization cell. */
struct CellIndex
{
    size_t rates[3];              ///< the three rate-sweep runs
    size_t guard = SIZE_MAX;      ///< guardrail run (non-baseline only)
};

} // namespace

int
main()
{
    const std::vector<std::string> names = campaignWorkloads();
    const double rates[] = {1e-4, 1e-3, 1e-2};
    const std::string orgs[] = {"baseline", "split-doppelganger",
                                "uniDoppelganger"};
    const double budget = envDouble("DOPP_QOR_BUDGET", 0.002);

    // One batch for the whole campaign: per workload, the precise
    // reference plus every organization × rate cell.
    std::vector<RunConfig> configs;
    std::vector<size_t> preciseIdx(names.size());
    std::vector<std::array<CellIndex, 3>> cells(names.size());
    for (size_t w = 0; w < names.size(); ++w) {
        preciseIdx[w] = configs.size();
        configs.push_back(defaultConfig(names[w]));

        for (size_t k = 0; k < 3; ++k) {
            for (size_t i = 0; i < 3; ++i) {
                RunConfig cfg = defaultConfig(names[w], orgs[k]);
                cfg.fault = rateConfig(rates[i]);
                cells[w][k].rates[i] = configs.size();
                configs.push_back(std::move(cfg));
            }
            // Guardrail study at the highest rate (the baseline has no
            // approximate fill path to degrade, so skip it).
            if (orgs[k] == "baseline")
                continue;
            RunConfig cfg = defaultConfig(names[w], orgs[k]);
            cfg.fault = rateConfig(rates[2]);
            cfg.qor.budget = budget;
            cells[w][k].guard = configs.size();
            configs.push_back(std::move(cfg));
        }
    }
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable err;
    err.header({"benchmark", "organization", "err @1e-4", "err @1e-3",
                "err @1e-2"});
    TextTable rep;
    rep.header({"benchmark", "organization", "injected", "detected",
                "repaired", "tags dropped", "entries dropped"});
    TextTable guard;
    guard.header({"benchmark", "organization", "err off", "err on",
                  "budget", "degradations", "degraded fills"});

    for (size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const RunResult &precise = results[preciseIdx[w]];

        for (size_t k = 0; k < 3; ++k) {
            const CellIndex &cell = cells[w][k];
            std::vector<std::string> erow = {name, orgs[k]};
            for (size_t i = 0; i < 3; ++i) {
                const RunResult &r = results[cell.rates[i]];
                erow.push_back(pct(workloadOutputError(
                    name, r.output, precise.output)));
            }
            err.row(std::move(erow));

            const RunResult &top = results[cell.rates[2]];
            auto count = [](const RunResult &r, const char *stat) {
                return strfmt("%llu", static_cast<unsigned long long>(
                                          r.stats.counter(stat)));
            };
            rep.row({name, orgs[k], count(top, "fault.injected.total"),
                     count(top, "fault.detected"),
                     count(top, "fault.repairs"),
                     count(top, "fault.tagsDropped"),
                     count(top, "fault.entriesDropped")});

            if (cell.guard == SIZE_MAX)
                continue;
            const RunResult &on = results[cell.guard];
            guard.row({name, orgs[k],
                       pct(workloadOutputError(name, top.output,
                                               precise.output)),
                       pct(workloadOutputError(name, on.output,
                                               precise.output)),
                       pct(budget), count(on, "qor.degradations"),
                       count(on, "llc.degradedFills")});
        }
    }

    err.print("Fault campaign: output error vs per-op fault rate");
    rep.print("Fault campaign: injector/repair tallies @1e-2");
    guard.print("QoR guardrail @1e-2: error with guardrail off vs on");
    std::printf("(same seed + config => identical fault trace and "
                "results; see DESIGN.md fault model)\n");
    return 0;
}
