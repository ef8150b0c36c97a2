#include "compressed_set.hh"

#include <cstring>

#include "util/logging.hh"

namespace dopp
{

namespace
{

/** Tag slots per set, rejecting a zero tag factor by name. */
u32
slotsFor(const CompressedSetConfig &cfg, const char *org)
{
    if (cfg.tagFactor == 0)
        fatal("%s llc: tagFactor must be non-zero", org);
    return cfg.ways * cfg.tagFactor;
}

} // namespace

CompressedSetLlc::CompressedSetLlc(MainMemory &memory,
                                   const CompressedSetConfig &config,
                                   const char *org,
                                   const ApproxRegistry *registry,
                                   StatRegistry *stat_registry,
                                   const std::string &stat_group)
    : LastLevelCache(memory, stat_registry, stat_group), cfg(config),
      registry(registry),
      dir(static_cast<u32>(config.sizeBytes / blockBytes / config.ways),
          slotsFor(config, org)),
      slicer(dir.sets()),
      sizes(static_cast<size_t>(dir.sets()) * dir.ways(), 0),
      used(dir.sets(), 0),
      blocks(sizes.size())
{
    initLlcCounters();
}

void
CompressedSetLlc::evictLru(u32 set)
{
    const int way = dir.oldestValidWay(set);
    DOPP_ASSERT(way >= 0);
    const Slot s = slotOf(set, static_cast<u32>(way));

    const Addr addr = static_cast<Addr>(dir.key(s));
    ++ctr->evictions;
    BlockData upward;
    const bool upwardDirty = invalidateUpward(addr, upward.data());
    if (upwardDirty) {
        mem.writeBlock(addr, upward.data());
        ++ctr->dirtyWritebacks;
    } else if (dir.flag(s, kDirty)) {
        ++ctr->dataArray.reads;
        mem.writeBlock(addr, data(s));
        ++ctr->dirtyWritebacks;
    }
    used[set] -= sizes[index(s)];
    release(s);
    dir.setValid(s, false);
}

void
CompressedSetLlc::makeRoom(u32 set, unsigned room)
{
    while (used[set] + room > budget() || dir.freeWay(set) < 0)
        evictLru(set);
}

LastLevelCache::FetchResult
CompressedSetLlc::fetch(Addr addr, u8 *out)
{
    ++ctr->fetches;
    ++ctr->tagArray.reads;

    const u32 set = slicer.set(addr);
    const u64 t0 = prof ? hotpathNowNs() : 0;
    const int hitWay = dir.findWay(set, addr);
    if (prof)
        prof->tagProbeNs += hotpathNowNs() - t0;
    if (hitWay >= 0) {
        ++ctr->fetchHits;
        ++ctr->dataArray.reads;
        dir.touch(set, static_cast<u32>(hitWay));
        const u64 d0 = prof ? hotpathNowNs() : 0;
        std::memcpy(out, data(slotOf(set, static_cast<u32>(hitWay))),
                    blockBytes);
        if (prof)
            prof->dataArrayNs += hotpathNowNs() - d0;
        return {true, cfg.hitLatency + cfg.decompressLatency};
    }

    ++ctr->fetchMisses;
    const Tick memLat = mem.readBlock(addr, out);

    const unsigned room = reserve(out);
    const u64 l0 = prof ? hotpathNowNs() : 0;
    makeRoom(set, room);
    const u32 way = static_cast<u32>(dir.freeWay(set));
    const Slot s = slotOf(set, way);
    dir.setValid(s, true);
    dir.setKey(s, addr);
    dir.setFlag(s, kDirty | kPolicyFlag, false);
    dir.touchInsert(set, way);
    std::memcpy(blocks[index(s)].bytes, out, blockBytes);
    sizes[index(s)] = static_cast<u8>(admit(s, room));
    used[set] += sizes[index(s)];
    if (prof)
        prof->listMaintNs += hotpathNowNs() - l0;
    ++ctr->tagArray.writes;
    ++ctr->dataArray.writes;
    return {false, cfg.hitLatency + memLat};
}

void
CompressedSetLlc::writeback(Addr addr, const u8 *block)
{
    ++ctr->writebacksIn;
    ++ctr->tagArray.reads;

    const u32 set = slicer.set(addr);
    const u64 t0 = prof ? hotpathNowNs() : 0;
    const int way = dir.findWay(set, addr);
    if (prof)
        prof->tagProbeNs += hotpathNowNs() - t0;
    if (way < 0) {
        mem.writeBlock(addr, block);
        ++ctr->dirtyWritebacks;
        return;
    }
    const Slot s = slotOf(set, static_cast<u32>(way));

    // The old contents leave first (their dictionary words may be what
    // lets the new contents compress); the block itself, now the most
    // recently used, survives the eviction loop.
    const unsigned room = reserve(block);
    const u64 l0 = prof ? hotpathNowNs() : 0;
    used[set] -= sizes[index(s)];
    release(s);
    sizes[index(s)] = 0;
    dir.touch(set, static_cast<u32>(way));
    while (used[set] + room > budget())
        evictLru(set);
    if (prof)
        prof->listMaintNs += hotpathNowNs() - l0;

    const u64 d0 = prof ? hotpathNowNs() : 0;
    std::memcpy(blocks[index(s)].bytes, block, blockBytes);
    sizes[index(s)] = static_cast<u8>(admit(s, room));
    used[set] += sizes[index(s)];
    if (prof)
        prof->dataArrayNs += hotpathNowNs() - d0;
    dir.setFlag(s, kDirty, true);
    ++ctr->dataArray.writes;
}

bool
CompressedSetLlc::contains(Addr addr) const
{
    return dir.findWay(slicer.set(addr), addr) >= 0;
}

void
CompressedSetLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    const Slot n = static_cast<Slot>(blocks.size());
    for (Slot s = 0; s < n; ++s) {
        if (!dir.valid(s))
            continue;
        LlcBlockInfo info;
        info.addr = static_cast<Addr>(dir.key(s));
        info.data = data(s);
        info.dirty = dir.flag(s, kDirty);
        const ApproxRegion *region =
            registry ? registry->find(info.addr) : nullptr;
        info.approx = region != nullptr;
        info.type = region ? region->type : ElemType::F32;
        visit(info);
    }
}

void
CompressedSetLlc::flush()
{
    for (u32 set = 0; set < dir.sets(); ++set) {
        while (dir.oldestValidWay(set) >= 0)
            evictLru(set);
    }
}

u64
CompressedSetLlc::storedBytes() const
{
    u64 n = 0;
    for (const u32 bytes : used)
        n += bytes;
    return n;
}

double
CompressedSetLlc::compressionRatio() const
{
    const u64 bytes = storedBytes();
    if (bytes == 0)
        return 1.0;
    return static_cast<double>(blockCount() * blockBytes) /
        static_cast<double>(bytes);
}

} // namespace dopp
