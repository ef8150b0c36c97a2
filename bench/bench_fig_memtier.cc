/**
 * @file
 * Memory-tier sweep (DESIGN.md §13): for each workload, compare where
 * the approximation lives —
 *
 *   precise       Baseline LLC + flat DRAM (the exact reference)
 *   cache-only    split Doppelgänger LLC + flat DRAM (the paper)
 *   memory-only   Baseline LLC + tiered approximate/NVM memory
 *   both          split Doppelgänger LLC + tiered memory
 *   both+guard    as `both`, with the cross-tier QoR guardrail armed
 *                 (degrade LLC fills, then migrate regions precise)
 *
 * and report end-to-end output error, runtime, LLC + memory-tier
 * energy (CactiLite for the SRAM arrays, per-partition profile
 * energies for the memory), the per-partition fault/latency/buffer
 * counters of the `both` run, and what the guardrail escalation did.
 *
 * The sweep runs through the resilient batch runner: set DOPP_JOURNAL
 * to make it resumable, DOPP_JOBS for parallelism (results are
 * bit-identical at any job count).
 *
 * Environment knobs (besides common.hh's):
 *   DOPP_MEMTIER_WORKLOADS  comma-separated workload subset
 *   DOPP_MEMTIER_BER        approx-DRAM read bit-error rate (1e-5)
 *   DOPP_MEMTIER_REFRESH    retention fault rate per epoch (1e-4)
 *   DOPP_QOR_BUDGET         guardrail error budget (0.002)
 */

#include <cstdlib>
#include <sstream>

#include "common.hh"
#include "energy/energy_model.hh"

using namespace dopp;
using namespace dopp::bench;

namespace
{

std::vector<std::string>
sweepWorkloads()
{
    const char *env = std::getenv("DOPP_MEMTIER_WORKLOADS");
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

/** Batch indices of one workload's five modes. */
struct Cell
{
    size_t precise;
    size_t cacheOnly;
    size_t memOnly;
    size_t both;
    size_t bothGuard;
};

/** LLC energy via the snapshot overloads, per organization. */
double
llcEnergyPj(const RunResult &r)
{
    static const EnergyModel model;
    if (r.organization == "split-doppelganger") {
        return model
            .split(r.stats, "llc.precise", "llc.dopp", r.doppConfig)
            .totalPj();
    }
    return model.baseline(r.stats, "llc").totalPj();
}

/**
 * Memory energy: tiered runs integrate their per-partition counters;
 * flat runs are costed as one precise-DRAM partition over the legacy
 * mem.reads/mem.writes counters, so the columns are comparable.
 */
double
memEnergyPj(const RunResult &r, const MemTierConfig &tier)
{
    if (tier.enabled())
        return memTierEnergy(tier, r.stats).totalPj();
    const MemPartitionProfile flat = preciseDramProfile();
    return flat.readEnergyPj *
            static_cast<double>(r.stats.counter("mem.reads")) +
        flat.writeEnergyPj *
            static_cast<double>(r.stats.counter("mem.writes")) +
        flat.standbyPowerMw *
            static_cast<double>(r.stats.counter("run.runtimeCycles"));
}

std::string
u64str(u64 v)
{
    return strfmt("%llu", static_cast<unsigned long long>(v));
}

} // namespace

int
main()
{
    const std::vector<std::string> names = sweepWorkloads();
    const double ber = envDouble("DOPP_MEMTIER_BER", 1e-5);
    const double refresh = envDouble("DOPP_MEMTIER_REFRESH", 1e-4);
    const double budget = envDouble("DOPP_QOR_BUDGET", 0.002);
    const MemTierConfig tier = defaultMemTier(ber, refresh);

    std::vector<RunConfig> configs;
    std::vector<Cell> cells(names.size());
    for (size_t w = 0; w < names.size(); ++w) {
        cells[w].precise = configs.size();
        configs.push_back(defaultConfig(names[w]));

        cells[w].cacheOnly = configs.size();
        configs.push_back(defaultConfig(names[w], "split-doppelganger"));

        RunConfig memOnly = defaultConfig(names[w]);
        memOnly.memTier = tier;
        cells[w].memOnly = configs.size();
        configs.push_back(std::move(memOnly));

        RunConfig both = defaultConfig(names[w], "split-doppelganger");
        both.memTier = tier;
        cells[w].both = configs.size();
        configs.push_back(std::move(both));

        RunConfig guarded = defaultConfig(names[w], "split-doppelganger");
        guarded.memTier = tier;
        guarded.qor.budget = budget;
        guarded.qor.migrateFactor = 1.5;
        cells[w].bothGuard = configs.size();
        configs.push_back(std::move(guarded));
    }
    const std::vector<RunResult> results = runCampaign(configs);

    TextTable modes;
    modes.header({"benchmark", "mode", "output err", "runtime",
                  "llc pJ", "mem pJ"});
    TextTable parts;
    parts.header({"benchmark", "partition", "kind", "reads", "writes",
                  "bit flips", "refresh flips", "wbuf hits",
                  "wbuf stalls", "pJ"});
    TextTable guard;
    guard.header({"benchmark", "err unguarded", "err guarded",
                  "budget", "degradations", "migrations",
                  "pages migrated"});

    struct Mode
    {
        const char *label;
        size_t Cell::*idx;
        bool tiered;
    };
    const Mode modeDefs[] = {
        {"precise", &Cell::precise, false},
        {"cache-only", &Cell::cacheOnly, false},
        {"memory-only", &Cell::memOnly, true},
        {"both", &Cell::both, true},
        {"both+guard", &Cell::bothGuard, true},
    };

    for (size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const RunResult &precise = results[cells[w].precise];

        for (const Mode &m : modeDefs) {
            const RunResult &r = results[cells[w].*(m.idx)];
            const MemTierConfig empty;
            modes.row({name, m.label,
                       pct(workloadOutputError(name, r.output,
                                               precise.output)),
                       strfmt("%.3f", normalizedRuntime(r, precise)),
                       strfmt("%.3e", llcEnergyPj(r)),
                       strfmt("%.3e",
                              memEnergyPj(r, m.tiered ? tier
                                                      : empty))});
        }

        const RunResult &both = results[cells[w].both];
        const MemTierEnergy energy = memTierEnergy(tier, both.stats);
        for (size_t i = 0; i < tier.partitions.size(); ++i) {
            const MemPartitionProfile &prof = tier.partitions[i];
            const std::string pre =
                "mem.partition" + std::to_string(i) + ".";
            parts.row({name, prof.name,
                       memPartitionKindName(prof.kind),
                       u64str(both.stats.counter(pre + "reads")),
                       u64str(both.stats.counter(pre + "writes")),
                       u64str(both.stats.counter(pre + "bitFlips")),
                       u64str(both.stats.counter(pre +
                                                 "refreshFaults")),
                       u64str(both.stats.counter(pre + "wbufHits")),
                       u64str(both.stats.counter(pre + "wbufStalls")),
                       strfmt("%.3e", energy.partitions[i].totalPj())});
        }

        const RunResult &guarded = results[cells[w].bothGuard];
        guard.row({name,
                   pct(workloadOutputError(name, both.output,
                                           precise.output)),
                   pct(workloadOutputError(name, guarded.output,
                                           precise.output)),
                   pct(budget),
                   u64str(guarded.stats.counter("qor.degradations")),
                   u64str(guarded.stats.counter("mem.migrations")),
                   u64str(guarded.stats.counter("mem.pagesMigrated"))});
    }

    modes.print("Memory tier: approximate cache vs approximate memory "
                "vs both");
    parts.print("Per-partition counters and energy (the `both` run)");
    guard.print("Cross-tier guardrail: degrade, then migrate");
    std::printf("(approx-DRAM ber=%g, retention/epoch=%g; equal "
                "configs are bit-identical at any DOPP_JOBS; set "
                "DOPP_JOURNAL to resume)\n",
                ber, refresh);
    return 0;
}
