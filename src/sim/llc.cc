#include "llc.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>

#include "util/logging.hh"

namespace dopp
{

u64
hotpathNowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace
{

#define DOPP_STAT_FIELD(member)                                         \
    LlcStatField{#member,                                               \
                 [](const LlcStats &s) -> u64 { return s.member; },     \
                 [](LlcStats &s) -> u64 & { return s.member; }}

constexpr std::array statFieldTable = {
    DOPP_STAT_FIELD(fetches),
    DOPP_STAT_FIELD(fetchHits),
    DOPP_STAT_FIELD(fetchMisses),
    DOPP_STAT_FIELD(writebacksIn),
    DOPP_STAT_FIELD(evictions),
    DOPP_STAT_FIELD(dataEvictions),
    DOPP_STAT_FIELD(dirtyWritebacks),
    DOPP_STAT_FIELD(backInvalidations),
    DOPP_STAT_FIELD(tagArray.reads),
    DOPP_STAT_FIELD(tagArray.writes),
    DOPP_STAT_FIELD(mtagArray.reads),
    DOPP_STAT_FIELD(mtagArray.writes),
    DOPP_STAT_FIELD(dataArray.reads),
    DOPP_STAT_FIELD(dataArray.writes),
    DOPP_STAT_FIELD(mapGens),
    DOPP_STAT_FIELD(linkedTagsSum),
    DOPP_STAT_FIELD(linkedTagsSamples),
    DOPP_STAT_FIELD(faultsInjected),
    DOPP_STAT_FIELD(faultsDetected),
    DOPP_STAT_FIELD(faultsRepaired),
    DOPP_STAT_FIELD(repairTagsDropped),
    DOPP_STAT_FIELD(repairEntriesDropped),
    DOPP_STAT_FIELD(degradedFills),
};

#undef DOPP_STAT_FIELD

// Every counter is a u64 and every counter must be in the table: a new
// LlcStats field that is not added above changes sizeof(LlcStats) and
// trips this assert, instead of silently vanishing from aggregated
// split-LLC statistics.
static_assert(sizeof(LlcStats) == statFieldTable.size() * sizeof(u64),
              "LlcStats and llcStatFields() are out of sync — add the "
              "new counter to statFieldTable in llc.cc");

} // namespace

const std::vector<LlcStatField> &
llcStatFields()
{
    static const std::vector<LlcStatField> fields(statFieldTable.begin(),
                                                  statFieldTable.end());
    return fields;
}

ArrayCounterRefs::ArrayCounterRefs(StatGroup g)
    : reads(g.counter("reads")), writes(g.counter("writes"))
{
}

LlcCounters::LlcCounters(StatGroup g)
    : fetches(g.counter("fetches",
                        "demand fetches from private L2 misses")),
      fetchHits(g.counter("fetchHits", "fetches that hit a tag entry")),
      fetchMisses(g.counter("fetchMisses",
                            "fetches that went to memory")),
      writebacksIn(g.counter("writebacksIn",
                             "dirty writebacks arriving from L2s")),
      evictions(g.counter("evictions", "tag entries evicted")),
      dataEvictions(g.counter("dataEvictions",
                              "data entries evicted (decoupled LLCs)")),
      dirtyWritebacks(g.counter("dirtyWritebacks",
                                "blocks written back to memory")),
      backInvalidations(g.counter(
          "backInvalidations", "inclusive invalidations sent upward")),
      tagArray(g.group("tagArray")),
      mtagArray(g.group("mtagArray")),
      dataArray(g.group("dataArray")),
      mapGens(g.counter("mapGens",
                        "map generations (168 pJ each, Sec 5.6)")),
      linkedTagsSum(g.counter("linkedTagsSum",
                              "sum of tags linked at data-evict time")),
      linkedTagsSamples(g.counter("linkedTagsSamples",
                                  "data evictions sampled for "
                                  "linked-tag stats")),
      faultsInjected(g.counter("faultsInjected",
                               "bit flips applied to this LLC")),
      faultsDetected(g.counter("faultsDetected",
                               "metadata corruptions self-check "
                               "caught")),
      faultsRepaired(g.counter("faultsRepaired",
                               "repair passes that restored "
                               "invariants")),
      repairTagsDropped(g.counter("repairTagsDropped",
                                  "tags invalidated to restore "
                                  "invariants")),
      repairEntriesDropped(g.counter("repairEntriesDropped",
                                     "data entries orphaned and "
                                     "invalidated")),
      degradedFills(g.counter("degradedFills",
                              "approx fills routed precise by the "
                              "guardrail"))
{
}

LlcStats
LlcCounters::view() const
{
    LlcStats s;
    s.fetches = fetches.value();
    s.fetchHits = fetchHits.value();
    s.fetchMisses = fetchMisses.value();
    s.writebacksIn = writebacksIn.value();
    s.evictions = evictions.value();
    s.dataEvictions = dataEvictions.value();
    s.dirtyWritebacks = dirtyWritebacks.value();
    s.backInvalidations = backInvalidations.value();
    s.tagArray.reads = tagArray.reads.value();
    s.tagArray.writes = tagArray.writes.value();
    s.mtagArray.reads = mtagArray.reads.value();
    s.mtagArray.writes = mtagArray.writes.value();
    s.dataArray.reads = dataArray.reads.value();
    s.dataArray.writes = dataArray.writes.value();
    s.mapGens = mapGens.value();
    s.linkedTagsSum = linkedTagsSum.value();
    s.linkedTagsSamples = linkedTagsSamples.value();
    s.faultsInjected = faultsInjected.value();
    s.faultsDetected = faultsDetected.value();
    s.faultsRepaired = faultsRepaired.value();
    s.repairTagsDropped = repairTagsDropped.value();
    s.repairEntriesDropped = repairEntriesDropped.value();
    s.degradedFills = degradedFills.value();
    return s;
}

void
LlcCounters::reset()
{
    fetches.reset();
    fetchHits.reset();
    fetchMisses.reset();
    writebacksIn.reset();
    evictions.reset();
    dataEvictions.reset();
    dirtyWritebacks.reset();
    backInvalidations.reset();
    tagArray.reads.reset();
    tagArray.writes.reset();
    mtagArray.reads.reset();
    mtagArray.writes.reset();
    dataArray.reads.reset();
    dataArray.writes.reset();
    mapGens.reset();
    linkedTagsSum.reset();
    linkedTagsSamples.reset();
    faultsInjected.reset();
    faultsDetected.reset();
    faultsRepaired.reset();
    repairTagsDropped.reset();
    repairEntriesDropped.reset();
    degradedFills.reset();
}

void
registerLlcStatsView(StatGroup group, std::function<LlcStats()> view)
{
    for (const LlcStatField &f : llcStatFields()) {
        group.counterFn(f.name,
                        [view, get = f.get] { return get(view()); });
    }
    registerLlcFormulas(group, std::move(view));
}

void
registerLlcFormulas(StatGroup group, std::function<LlcStats()> view)
{
    group.formula("missRate", [view] { return view().missRate(); },
                  "fetchMisses / fetches");
    group.formula("avgLinkedTags",
                  [view] { return view().avgLinkedTags(); },
                  "mean tags linked per evicted data entry");
}

ConventionalLlc::ConventionalLlc(MainMemory &memory, u64 size_bytes,
                                 u32 num_ways, Tick latency,
                                 const ApproxRegistry *registry,
                                 ReplPolicy policy,
                                 StatRegistry *stat_registry,
                                 const std::string &stat_group)
    : LastLevelCache(memory, stat_registry, stat_group),
      array(static_cast<u32>(size_bytes / blockBytes / num_ways),
            num_ways, policy),
      slicer(static_cast<u32>(size_bytes / blockBytes / num_ways)),
      hitLatency(latency),
      registry(registry)
{
    if (size_bytes % (static_cast<u64>(num_ways) * blockBytes) != 0)
        fatal("LLC size %llu not divisible by ways*blockBytes",
              static_cast<unsigned long long>(size_bytes));
    blocks.resize(static_cast<size_t>(array.sets()) * array.ways());
    initLlcCounters();
}

void
ConventionalLlc::evictLine(u32 set, u32 way)
{
    const i32 idx = array.index(set, way);
    if (!array.valid(idx))
        return;

    const Addr addr = slicer.addr(set, array.key(idx));
    ++ctr->evictions;

    // Inclusive LLC: invalidate private copies; a dirty private copy
    // supersedes our data for the writeback.
    BlockData upward;
    const bool upwardDirty = invalidateUpward(addr, upward.data());
    if (upwardDirty) {
        mem.writeBlock(addr, upward.data());
        ++ctr->dirtyWritebacks;
    } else if (array.flag(idx, LineDirty)) {
        ++ctr->dataArray.reads;
        mem.writeBlock(addr,
                       blocks[static_cast<size_t>(idx)].data());
        ++ctr->dirtyWritebacks;
    }
    array.setValid(idx, false);
}

void
ConventionalLlc::maybeInjectFault()
{
    if (!faults)
        return;
    faults->step();
    if (!faults->draw(FaultDomain::LlcData))
        return;

    // Pick a slot uniformly; an invalid or precise pick means the
    // flip landed in an unused/reliable cell and is a no-op. Precise
    // blocks are exempt: only approximate data is stored in the
    // fault-prone (voltage-scaled) portion of the array.
    const u64 total =
        static_cast<u64>(array.sets()) * array.ways();
    const u64 slot = faults->pick(total);
    const u32 bit = static_cast<u32>(faults->pick(blockBytes * 8));
    const i32 idx = static_cast<i32>(slot);
    if (!array.valid(idx))
        return;
    const Addr addr = slicer.addr(static_cast<u32>(slot) / array.ways(),
                                  array.key(idx));
    const ApproxRegion *region = registry ? registry->find(addr) : nullptr;
    if (!region)
        return;

    const double err = flipBitError(blocks[static_cast<size_t>(idx)].data(),
                                    bit, region->type, region->span());
    faults->record(FaultDomain::LlcData, slot, 0, bit);
    ++ctr->faultsInjected;
    if (guardrail)
        guardrail->observeError(err);
}

LastLevelCache::FetchResult
ConventionalLlc::fetch(Addr addr, u8 *data)
{
    maybeInjectFault();
    ++ctr->fetches;
    ++ctr->tagArray.reads;

    const u32 set = slicer.set(addr);
    const u64 tag = slicer.tag(addr);

    const u64 t0 = prof ? hotpathNowNs() : 0;
    const int way = array.findWay(set, tag);
    if (prof)
        prof->tagProbeNs += hotpathNowNs() - t0;
    if (way >= 0) {
        const i32 idx = array.index(set, static_cast<u32>(way));
        ++ctr->fetchHits;
        ++ctr->dataArray.reads;
        array.touch(set, static_cast<u32>(way));
        const u64 d0 = prof ? hotpathNowNs() : 0;
        std::memcpy(data, blocks[static_cast<size_t>(idx)].data(),
                    blockBytes);
        if (prof)
            prof->dataArrayNs += hotpathNowNs() - d0;
        return {true, hitLatency};
    }

    // Miss: fetch from memory and insert.
    ++ctr->fetchMisses;
    const u32 victim = array.victimWay(set);
    evictLine(set, victim);

    const i32 idx = array.index(set, victim);
    BlockData &block = blocks[static_cast<size_t>(idx)];
    const Tick memLat = mem.readBlock(addr, block.data());
    array.setValid(idx, true);
    array.setKey(idx, tag);
    array.setFlag(idx, LineDirty, false);
    array.touchInsert(set, victim);
    ++ctr->tagArray.writes;
    ++ctr->dataArray.writes;

    const u64 d0 = prof ? hotpathNowNs() : 0;
    std::memcpy(data, block.data(), blockBytes);
    if (prof)
        prof->dataArrayNs += hotpathNowNs() - d0;
    return {false, hitLatency + memLat};
}

void
ConventionalLlc::writeback(Addr addr, const u8 *data)
{
    maybeInjectFault();
    ++ctr->writebacksIn;
    ++ctr->tagArray.reads;

    const u32 set = slicer.set(addr);
    const u64 tag = slicer.tag(addr);

    const u64 t0 = prof ? hotpathNowNs() : 0;
    const int way = array.findWay(set, tag);
    if (prof)
        prof->tagProbeNs += hotpathNowNs() - t0;
    if (way >= 0) {
        const i32 idx = array.index(set, static_cast<u32>(way));
        const u64 d0 = prof ? hotpathNowNs() : 0;
        std::memcpy(blocks[static_cast<size_t>(idx)].data(), data,
                    blockBytes);
        if (prof)
            prof->dataArrayNs += hotpathNowNs() - d0;
        array.setFlag(idx, LineDirty, true);
        array.touch(set, static_cast<u32>(way));
        ++ctr->dataArray.writes;
        return;
    }

    // No tag (should not happen with strict inclusion); send straight
    // to memory rather than disturbing the set.
    mem.writeBlock(addr, data);
    ++ctr->dirtyWritebacks;
}

bool
ConventionalLlc::contains(Addr addr) const
{
    return array.findWay(slicer.set(addr), slicer.tag(addr)) >= 0;
}

void
ConventionalLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    for (u32 s = 0; s < array.sets(); ++s) {
        for (u32 w = 0; w < array.ways(); ++w) {
            const i32 idx =
                static_cast<i32>(s * array.ways() + w);
            if (!array.valid(idx))
                continue;
            LlcBlockInfo info;
            info.addr = slicer.addr(s, array.key(idx));
            info.data = blocks[static_cast<size_t>(idx)].data();
            info.dirty = array.flag(idx, LineDirty);
            const ApproxRegion *region =
                registry ? registry->find(info.addr) : nullptr;
            info.approx = region != nullptr;
            info.type = region ? region->type : ElemType::F32;
            visit(info);
        }
    }
}

void
ConventionalLlc::flush()
{
    for (u32 s = 0; s < array.sets(); ++s)
        for (u32 w = 0; w < array.ways(); ++w)
            evictLine(s, w);
    array.invalidateAll();
}

} // namespace dopp
