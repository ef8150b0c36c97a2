#include "energy_model.hh"

namespace dopp
{

double
EnergyModel::arrayPj(const SramCost &cost, const StatSnapshot &snap,
                     const std::string &array)
{
    return cost.readEnergyPj *
            static_cast<double>(snap.counter(array + ".reads")) +
        cost.writeEnergyPj *
            static_cast<double>(snap.counter(array + ".writes"));
}

double
EnergyModel::leakagePj(const LlcCost &llc, Tick cycles)
{
    // 1 GHz: one cycle is 1 ns; P[mW] × t[ns] = E[pJ].
    return llc.leakageMw * static_cast<double>(cycles);
}

namespace
{

Tick
runtimeFromSnapshot(const StatSnapshot &snap)
{
    return snap.counter("run.runtimeCycles");
}

} // namespace

EnergyResult
EnergyModel::baseline(const StatSnapshot &snap, const std::string &group,
                      u64 entries, u32 ways) const
{
    const LlcCost llc = baselineLlcCost(model, entries, ways);
    const StructureCost &s = llc.structures.front();

    EnergyResult r;
    r.dynamicPj = arrayPj(s.tagPart, snap, group + ".tagArray") +
        arrayPj(s.dataPart, snap, group + ".dataArray");
    r.leakagePj = leakagePj(llc, runtimeFromSnapshot(snap));
    return r;
}

EnergyResult
EnergyModel::split(const StatSnapshot &snap,
                   const std::string &precise_group,
                   const std::string &dopp_group, const DoppConfig &cfg,
                   u64 precise_entries, u32 precise_ways) const
{
    const LlcCost llc =
        splitLlcCost(model, precise_entries, precise_ways, cfg);
    const StructureCost &pc = llc.structures[0];
    const StructureCost &tag = llc.structures[1];
    const StructureCost &dat = llc.structures[2];

    EnergyResult r;
    r.dynamicPj = arrayPj(pc.tagPart, snap, precise_group + ".tagArray") +
        arrayPj(pc.dataPart, snap, precise_group + ".dataArray") +
        arrayPj(tag.tagPart, snap, dopp_group + ".tagArray") +
        arrayPj(dat.tagPart, snap, dopp_group + ".mtagArray") +
        arrayPj(dat.dataPart, snap, dopp_group + ".dataArray");
    r.mapGenPj = mapGenEnergyPj *
        static_cast<double>(snap.counter(dopp_group + ".mapGens"));
    r.dynamicPj += r.mapGenPj;
    r.leakagePj = leakagePj(llc, runtimeFromSnapshot(snap));
    return r;
}

EnergyResult
EnergyModel::unified(const StatSnapshot &snap, const std::string &group,
                     const DoppConfig &cfg) const
{
    const LlcCost llc = uniLlcCost(model, cfg);
    const StructureCost &tag = llc.structures[0];
    const StructureCost &dat = llc.structures[1];

    EnergyResult r;
    r.dynamicPj = arrayPj(tag.tagPart, snap, group + ".tagArray") +
        arrayPj(dat.tagPart, snap, group + ".mtagArray") +
        arrayPj(dat.dataPart, snap, group + ".dataArray");
    r.mapGenPj = mapGenEnergyPj *
        static_cast<double>(snap.counter(group + ".mapGens"));
    r.dynamicPj += r.mapGenPj;
    r.leakagePj = leakagePj(llc, runtimeFromSnapshot(snap));
    return r;
}

MemTierEnergy
memTierEnergy(const MemTierConfig &tier, const StatSnapshot &snap)
{
    const Tick cycles = runtimeFromSnapshot(snap);

    MemTierEnergy out;
    out.partitions.reserve(tier.partitions.size());
    for (size_t i = 0; i < tier.partitions.size(); ++i) {
        const MemPartitionProfile &prof = tier.partitions[i];
        const std::string prefix =
            "mem.partition" + std::to_string(i) + ".";

        MemPartitionEnergy e;
        e.name = prof.name;
        const std::string readsName = prefix + "reads";
        const std::string writesName = prefix + "writes";
        if (snap.has(readsName)) {
            e.dynamicPj = prof.readEnergyPj *
                    static_cast<double>(snap.counter(readsName)) +
                prof.writeEnergyPj *
                    static_cast<double>(snap.counter(writesName));
            // 1 GHz: one cycle is 1 ns; P[mW] × t[ns] = E[pJ].
            e.standbyPj =
                prof.standbyPowerMw * static_cast<double>(cycles);
        }
        out.partitions.push_back(std::move(e));
    }
    return out;
}

} // namespace dopp
