/**
 * @file
 * LLC energy accounting (paper Sec 5.3, 5.6): per-structure access
 * counts from the simulation × CactiLite per-access energies, plus the
 * 168 pJ map-generation cost, plus leakage power × runtime.
 */

#ifndef DOPP_ENERGY_ENERGY_MODEL_HH
#define DOPP_ENERGY_ENERGY_MODEL_HH

#include <string>
#include <vector>

#include "core/doppelganger_cache.hh"
#include "energy/hardware_cost.hh"
#include "sim/llc.hh"
#include "sim/mem_tier.hh"

namespace dopp
{

/** Energy of one run of one LLC organization. */
struct EnergyResult
{
    double dynamicPj = 0.0;  ///< total switching energy
    double leakagePj = 0.0;  ///< leakage over the measured runtime
    double mapGenPj = 0.0;   ///< portion of dynamicPj spent hashing

    double totalPj() const { return dynamicPj + leakagePj; }
};

/** Energy of one main-memory partition over one run. */
struct MemPartitionEnergy
{
    std::string name;        ///< profile name ("dram", "nvm-bank", …)
    double dynamicPj = 0.0;  ///< reads/writes × per-access energies
    double standbyPj = 0.0;  ///< standby/refresh power × runtime

    double totalPj() const { return dynamicPj + standbyPj; }
};

/** Per-partition + total memory-tier energy of one run. */
struct MemTierEnergy
{
    std::vector<MemPartitionEnergy> partitions;

    double
    totalPj() const
    {
        double sum = 0.0;
        for (const auto &p : partitions)
            sum += p.totalPj();
        return sum;
    }
};

/**
 * Memory-tier energy from a run's registry snapshot: partition i's
 * access counts are read from "mem.partitionI.reads"/".writes"
 * (MainMemory::registerStats) and multiplied by @p tier's per-access
 * energies; standby power integrates over "run.runtimeCycles" (1 GHz:
 * cycles = ns, so pJ = mW × cycles). Partitions whose counters are
 * absent from the snapshot (legacy flat-memory runs) contribute zero.
 */
MemTierEnergy memTierEnergy(const MemTierConfig &tier,
                            const StatSnapshot &snap);

/**
 * Converts LLC statistics into energy for the three organizations the
 * paper evaluates. Core clock is 1 GHz (Table 1), so cycles = ns.
 *
 * Every method reads the per-structure access counts out of a run's
 * registry snapshot (RunResult::stats) by dotted structure name:
 * @p group names the group the organization's counters live under
 * ("llc", "llc.precise", "llc.dopp"), and the runtime comes from
 * "run.runtimeCycles". Fatal if a needed counter is missing from the
 * snapshot.
 */
class EnergyModel
{
  public:
    EnergyModel() = default;

    /** Baseline conventional LLC energy. */
    EnergyResult baseline(const StatSnapshot &snap,
                          const std::string &group,
                          u64 entries = 32 * 1024,
                          u32 ways = 16) const;

    /**
     * Split organization energy: @p precise_group and @p dopp_group
     * hold the two halves' counters, @p cfg the Doppelgänger geometry.
     */
    EnergyResult split(const StatSnapshot &snap,
                       const std::string &precise_group,
                       const std::string &dopp_group,
                       const DoppConfig &cfg,
                       u64 precise_entries = 16 * 1024,
                       u32 precise_ways = 16) const;

    /** uniDoppelgänger energy. */
    EnergyResult unified(const StatSnapshot &snap,
                         const std::string &group,
                         const DoppConfig &cfg) const;

    const CactiLite &cacti() const { return model; }

  private:
    /** @p array's ".reads"/".writes" counters in @p snap × a
     * subarray's per-access energies. */
    static double arrayPj(const SramCost &cost, const StatSnapshot &snap,
                          const std::string &array);

    /** leakage of @p llc over @p cycles ns. */
    static double leakagePj(const LlcCost &llc, Tick cycles);

    CactiLite model;
};

} // namespace dopp

#endif // DOPP_ENERGY_ENERGY_MODEL_HH
