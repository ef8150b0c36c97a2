#include "doppelganger_cache.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace dopp
{

DoppelgangerCache::DoppelgangerCache(MainMemory &memory,
                                     const DoppConfig &config,
                                     const ApproxRegistry *registry,
                                     StatRegistry *stat_registry,
                                     const std::string &stat_group)
    : DoppEngine(memory, config, registry, stat_registry, stat_group),
      tagDir(config.tagEntries / config.tagWays, config.tagWays,
             config.tagPolicy),
      tagSlicer(config.tagEntries / config.tagWays),
      dataDir(config.dataEntries / config.dataWays, config.dataWays,
              config.dataPolicy),
      tagMapV(config.tagEntries, 0),
      tagDataV(config.tagEntries, -1),
      tagPrevV(config.tagEntries, -1),
      tagNextV(config.tagEntries, -1),
      dataHeadV(config.dataEntries, -1),
      blocks(config.dataEntries)
{
    initLlcCounters();
}

i32
DoppelgangerCache::tagIndex(u32 set, u32 way) const
{
    return static_cast<i32>(set * cfg.tagWays + way);
}

Addr
DoppelgangerCache::tagAddr(i32 idx) const
{
    const u32 set = static_cast<u32>(idx) / cfg.tagWays;
    return tagSlicer.addr(set, tagDir.key(idx));
}

i32
DoppelgangerCache::findTag(Addr addr) const
{
    const u32 set = tagSlicer.set(addr);
    const int way = tagDir.findWay(set, tagSlicer.tag(addr));
    return way < 0 ? -1 : tagIndex(set, static_cast<u32>(way));
}

u32
DoppelgangerCache::dataSetOfMap(u64 map) const
{
    if (!cfg.hashDataSetIndex) {
        // Paper-faithful indexing (Fig 4): the lower portion of the
        // map selects the set. (Generalized to modulo so fractional
        // data arrays — e.g. uniDoppelgänger's 3/4 — work; identical
        // to the low bits for power-of-two set counts.)
        return static_cast<u32>(map % dataDir.sets());
    }
    // Hashed indexing (our default): a multiplicative mix spreads
    // structured data (e.g. grid coordinates) across all sets. Entry
    // identity is unchanged — entries always match on the full map.
    u64 x = map;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<u32>(x % dataDir.sets());
}

i32
DoppelgangerCache::findDataByMap(u64 map) const
{
    // Batched MTag probe: one pass over the set's contiguous key run,
    // requiring "valid and not precise" via the flag byte.
    const u32 set = dataSetOfMap(map);
    const int way = dataDir.findWayFlags(
        set, map, SetAssocDir::kValid | DataPrecise,
        SetAssocDir::kValid);
    return way < 0 ? -1
                   : static_cast<i32>(set * cfg.dataWays +
                                      static_cast<u32>(way));
}

i32
DoppelgangerCache::dataIndexOfTag(i32 tag_idx) const
{
    DOPP_ASSERT(tagDir.valid(tag_idx));
    if (tagDir.flag(tag_idx, TagPrecise))
        return static_cast<i32>(tagMapV[static_cast<size_t>(tag_idx)]);
    // The MTag lookup the hardware makes here (Sec 3.2 step 2) is
    // charged by the caller's mtagArray.reads; its answer is the slot
    // linkHead cached, which checkInvariants proves equal to
    // findDataByMap(map) (DESIGN.md §14.2).
    return tagDataV[static_cast<size_t>(tag_idx)];
}

void
DoppelgangerCache::linkHead(i32 tag_idx, i32 data_idx)
{
    i32 &head = dataHeadV[static_cast<size_t>(data_idx)];
    tagDataV[static_cast<size_t>(tag_idx)] = data_idx;
    tagPrevV[static_cast<size_t>(tag_idx)] = -1;
    tagNextV[static_cast<size_t>(tag_idx)] = head;
    if (head >= 0)
        tagPrevV[static_cast<size_t>(head)] = tag_idx;
    head = tag_idx;
}

bool
DoppelgangerCache::unlink(i32 tag_idx, i32 data_idx)
{
    const i32 prev = tagPrevV[static_cast<size_t>(tag_idx)];
    const i32 next = tagNextV[static_cast<size_t>(tag_idx)];
    if (prev >= 0)
        tagNextV[static_cast<size_t>(prev)] = next;
    else
        dataHeadV[static_cast<size_t>(data_idx)] = next;
    if (next >= 0)
        tagPrevV[static_cast<size_t>(next)] = prev;
    tagPrevV[static_cast<size_t>(tag_idx)] = -1;
    tagNextV[static_cast<size_t>(tag_idx)] = -1;
    return dataHeadV[static_cast<size_t>(data_idx)] < 0;
}

void
DoppelgangerCache::writebackTag(i32 tag_idx, i32 data_idx)
{
    const Addr addr = tagAddr(tag_idx);

    // Inclusive LLC: drop private copies; a dirty private copy is the
    // newest version and supersedes the shared data entry.
    BlockData upward;
    const bool upwardDirty = invalidateUpward(addr, upward.data());
    if (upwardDirty) {
        mem.writeBlock(addr, upward.data());
        ++ctr->dirtyWritebacks;
    } else if (tagDir.flag(tag_idx, TagDirty)) {
        ++ctr->dataArray.reads;
        mem.writeBlock(addr,
                       blocks[static_cast<size_t>(data_idx)].data());
        ++ctr->dirtyWritebacks;
    }
}

void
DoppelgangerCache::evictDataEntry(i32 data_idx)
{
    DOPP_ASSERT(dataDir.valid(data_idx));

    // Evict every tag associated with this block; each may require a
    // back-invalidation and a writeback (Sec 3.5).
    u64 count = 0;
    i32 cur = dataHeadV[static_cast<size_t>(data_idx)];
    while (cur >= 0) {
        const i32 next = tagNextV[static_cast<size_t>(cur)];
        writebackTag(cur, data_idx);
        tagDir.setValid(cur, false);
        tagPrevV[static_cast<size_t>(cur)] = -1;
        tagNextV[static_cast<size_t>(cur)] = -1;
        ++ctr->evictions;
        ++count;
        cur = next;
    }
    dataHeadV[static_cast<size_t>(data_idx)] = -1;
    dataDir.setValid(data_idx, false);
    ++ctr->dataEvictions;
    ctr->linkedTagsSum += count;
    ++ctr->linkedTagsSamples;
}

void
DoppelgangerCache::evictTagEntry(i32 tag_idx)
{
    DOPP_ASSERT(tagDir.valid(tag_idx));

    const i32 data_idx = dataIndexOfTag(tag_idx);

    writebackTag(tag_idx, data_idx);
    const bool empty = unlink(tag_idx, data_idx);
    tagDir.setValid(tag_idx, false);
    ++ctr->evictions;

    if (empty) {
        // Sole tag: its data entry goes too (Sec 3.5).
        dataDir.setValid(data_idx, false);
        ++ctr->dataEvictions;
        ctr->linkedTagsSum += 1;
        ++ctr->linkedTagsSamples;
    }
}

u64
DoppelgangerCache::linkedTagCount(i32 data_idx, u64 cap) const
{
    u64 n = 0;
    for (i32 cur = dataHeadV[static_cast<size_t>(data_idx)];
         cur >= 0 && n < cap;
         cur = tagNextV[static_cast<size_t>(cur)]) {
        ++n;
    }
    return n;
}

i32
DoppelgangerCache::allocateDataEntry(u32 set)
{
    u32 way = dataDir.victimWay(set);
    i32 idx = static_cast<i32>(set * cfg.dataWays + way);

    if (cfg.tagCountAwareData && dataDir.valid(idx)) {
        // The set is full: prefer the way with the fewest linked tags
        // (cheapest eviction); the base policy's pick breaks ties.
        // Count up to the whole tag array: the stats-path saturation
        // cap (64) would make every heavily shared entry tie.
        u64 best = linkedTagCount(idx, cfg.tagEntries);
        for (u32 w = 0; w < cfg.dataWays && best > 1; ++w) {
            const i32 cand = static_cast<i32>(set * cfg.dataWays + w);
            const u64 count = linkedTagCount(cand, best);
            if (count < best) {
                best = count;
                way = w;
                idx = cand;
            }
        }
    }

    if (dataDir.valid(idx))
        evictDataEntry(idx);
    return idx;
}

void
DoppelgangerCache::insertBlock(Addr addr, const u8 *bytes)
{
    // Allocate a tag entry (evicting the LRU tag if needed).
    const u32 tset = tagSlicer.set(addr);
    const u64 l0 = prof ? hotpathNowNs() : 0;
    const u32 tway = tagDir.victimWay(tset);
    const i32 tidx = tagIndex(tset, tway);
    if (tagDir.valid(tidx))
        evictTagEntry(tidx);

    tagDir.setValid(tidx, true);
    tagDir.setKey(tidx, tagSlicer.tag(addr));
    tagDir.setFlag(tidx, TagDirty, false);
    tagPrevV[static_cast<size_t>(tidx)] = -1;
    tagNextV[static_cast<size_t>(tidx)] = -1;
    tagDir.touchInsert(tset, tway);
    ++ctr->tagArray.writes;
    if (prof)
        prof->listMaintNs += hotpathNowNs() - l0;

    const ApproxRegion *region = registry ? registry->find(addr) : nullptr;
    bool approx = cfg.unified ? region != nullptr : true;
    if (approx && cfg.unified && guardrail && guardrail->degraded()) {
        // QoR guardrail tripped: degrade gracefully by storing
        // would-be-approximate fills precisely (exact data, exclusive
        // entry) until the error estimate recovers.
        approx = false;
        ++ctr->degradedFills;
    }

    if (!approx) {
        // uniDoppelgänger precise path (Sec 3.8): an exclusive data
        // entry addressed by a direct pointer; no hash computation.
        tagDir.setFlag(tidx, TagPrecise, true);
        const u32 dset = dataSetOfMap(addr >> blockOffsetBits);
        const i32 didx = allocateDataEntry(dset);
        dataDir.setValid(didx, true);
        dataDir.setFlag(didx, DataPrecise, true);
        dataDir.setKey(didx, blockAlign(addr));
        dataHeadV[static_cast<size_t>(didx)] = tidx;
        std::memcpy(blocks[static_cast<size_t>(didx)].data(), bytes,
                    blockBytes);
        dataDir.touchInsert(dset, static_cast<u32>(didx) % cfg.dataWays);
        tagMapV[static_cast<size_t>(tidx)] = static_cast<u64>(didx);
        ++ctr->mtagArray.writes;
        ++ctr->dataArray.writes;
        observeClean();
        return;
    }

    tagDir.setFlag(tidx, TagPrecise, false);
    const u64 map = mapFor(addr, bytes);
    ++ctr->mapGens;
    ++ctr->mtagArray.reads;

    const u64 m0 = prof ? hotpathNowNs() : 0;
    const i32 existing = findDataByMap(map);
    if (prof)
        prof->mtagProbeNs += hotpathNowNs() - m0;
    if (existing >= 0) {
        // A similar block exists: share its entry, drop the fetched
        // data (Sec 3.3 "Similar Data Block Exists"). Future reads
        // serve the doppelgänger — report the substitution error.
        const u64 l1 = prof ? hotpathNowNs() : 0;
        linkHead(tidx, existing);
        tagMapV[static_cast<size_t>(tidx)] = map;
        dataDir.touch(static_cast<u32>(existing) / cfg.dataWays,
                      static_cast<u32>(existing) % cfg.dataWays);
        if (prof)
            prof->listMaintNs += hotpathNowNs() - l1;
        observeSubstitution(addr, bytes, existing);
        return;
    }

    // No similar block: allocate (evicting a victim and all its tags).
    const u64 l1 = prof ? hotpathNowNs() : 0;
    const u32 dset = dataSetOfMap(map);
    const i32 didx = allocateDataEntry(dset);
    dataDir.setValid(didx, true);
    dataDir.setFlag(didx, DataPrecise, false);
    dataDir.setKey(didx, map);
    dataHeadV[static_cast<size_t>(didx)] = -1;
    if (prof)
        prof->listMaintNs += hotpathNowNs() - l1;
    const u64 d0 = prof ? hotpathNowNs() : 0;
    std::memcpy(blocks[static_cast<size_t>(didx)].data(), bytes,
                blockBytes);
    if (prof)
        prof->dataArrayNs += hotpathNowNs() - d0;
    dataDir.touchInsert(dset, static_cast<u32>(didx) % cfg.dataWays);
    linkHead(tidx, didx);
    tagMapV[static_cast<size_t>(tidx)] = map;
    ++ctr->mtagArray.writes;
    ++ctr->dataArray.writes;
    observeClean();
}

LastLevelCache::FetchResult
DoppelgangerCache::fetch(Addr addr, u8 *out)
{
    injectFaults();
    ++ctr->fetches;
    ++ctr->tagArray.reads;

    const u64 t0 = prof ? hotpathNowNs() : 0;
    const i32 tidx = findTag(addr);
    if (prof)
        prof->tagProbeNs += hotpathNowNs() - t0;
    if (tidx >= 0) {
        ++ctr->fetchHits;
        tagDir.touch(static_cast<u32>(tidx) / cfg.tagWays,
                     static_cast<u32>(tidx) % cfg.tagWays);

        // Second sequential lookup: the MTag array (Sec 3.2 step 2).
        ++ctr->mtagArray.reads;
        const u64 m0 = prof ? hotpathNowNs() : 0;
        const i32 didx = dataIndexOfTag(tidx);
        if (prof)
            prof->mtagProbeNs += hotpathNowNs() - m0;
        ++ctr->dataArray.reads;
        dataDir.touch(static_cast<u32>(didx) / cfg.dataWays,
                      static_cast<u32>(didx) % cfg.dataWays);
        const u64 d0 = prof ? hotpathNowNs() : 0;
        std::memcpy(out, blocks[static_cast<size_t>(didx)].data(),
                    blockBytes);
        if (prof)
            prof->dataArrayNs += hotpathNowNs() - d0;
        observeClean();
        return {true, cfg.hitLatency};
    }

    // Miss: the requester gets the fetched (exact) values immediately;
    // placement happens off the critical path (Sec 3.3).
    ++ctr->fetchMisses;
    const Tick memLat = mem.readBlock(addr, out);
    insertBlock(addr, out);
    return {false, cfg.hitLatency + memLat};
}

void
DoppelgangerCache::writeback(Addr addr, const u8 *bytes)
{
    injectFaults();
    ++ctr->writebacksIn;
    ++ctr->tagArray.reads;

    const u64 t0 = prof ? hotpathNowNs() : 0;
    const i32 tidx = findTag(addr);
    if (prof)
        prof->tagProbeNs += hotpathNowNs() - t0;
    if (tidx < 0) {
        // Not resident (inclusion is maintained by the hierarchy, so
        // this only happens for orphan drains); go straight to memory.
        mem.writeBlock(addr, bytes);
        ++ctr->dirtyWritebacks;
        observeClean();
        return;
    }

    tagDir.touch(static_cast<u32>(tidx) / cfg.tagWays,
                 static_cast<u32>(tidx) % cfg.tagWays);

    if (tagDir.flag(tidx, TagPrecise)) {
        const i32 didx =
            static_cast<i32>(tagMapV[static_cast<size_t>(tidx)]);
        const u64 d0 = prof ? hotpathNowNs() : 0;
        std::memcpy(blocks[static_cast<size_t>(didx)].data(), bytes,
                    blockBytes);
        if (prof)
            prof->dataArrayNs += hotpathNowNs() - d0;
        tagDir.setFlag(tidx, TagDirty, true);
        ++ctr->dataArray.writes;
        observeClean();
        return;
    }

    // Recompute the map with the new values (Sec 3.4).
    const u64 newMap = mapFor(addr, bytes);
    ++ctr->mapGens;

    if (newMap == tagMapV[static_cast<size_t>(tidx)]) {
        // Silent or similarity-preserving store: dirty bit only; the
        // written values are dropped in favor of the shared entry.
        tagDir.setFlag(tidx, TagDirty, true);
        if (guardrail)
            observeSubstitution(addr, bytes, dataIndexOfTag(tidx));
        return;
    }

    // The map changed: move this tag to the new map's list.
    ++ctr->mtagArray.reads;
    const u64 m0 = prof ? hotpathNowNs() : 0;
    const i32 oldIdx = dataIndexOfTag(tidx);
    if (prof)
        prof->mtagProbeNs += hotpathNowNs() - m0;
    const u64 l0 = prof ? hotpathNowNs() : 0;
    if (unlink(tidx, oldIdx)) {
        // This tag was the sole user; the entry's data is superseded
        // by this very write, so it is freed without a writeback.
        dataDir.setValid(oldIdx, false);
        ++ctr->dataEvictions;
    }
    if (prof)
        prof->listMaintNs += hotpathNowNs() - l0;

    const u64 m1 = prof ? hotpathNowNs() : 0;
    const i32 existing = findDataByMap(newMap);
    if (prof)
        prof->mtagProbeNs += hotpathNowNs() - m1;
    if (existing >= 0) {
        // A block with the new map exists: the written values are
        // effectively ignored; this write made the block similar to
        // one already cached (Sec 3.4).
        linkHead(tidx, existing);
        tagMapV[static_cast<size_t>(tidx)] = newMap;
        tagDir.setFlag(tidx, TagDirty, true);
        dataDir.touch(static_cast<u32>(existing) / cfg.dataWays,
                      static_cast<u32>(existing) % cfg.dataWays);
        observeSubstitution(addr, bytes, existing);
        return;
    }

    const u64 l1 = prof ? hotpathNowNs() : 0;
    const u32 dset = dataSetOfMap(newMap);
    const i32 didx = allocateDataEntry(dset);
    dataDir.setValid(didx, true);
    dataDir.setFlag(didx, DataPrecise, false);
    dataDir.setKey(didx, newMap);
    dataHeadV[static_cast<size_t>(didx)] = -1;
    if (prof)
        prof->listMaintNs += hotpathNowNs() - l1;
    const u64 d0 = prof ? hotpathNowNs() : 0;
    std::memcpy(blocks[static_cast<size_t>(didx)].data(), bytes,
                blockBytes);
    if (prof)
        prof->dataArrayNs += hotpathNowNs() - d0;
    dataDir.touchInsert(dset, static_cast<u32>(didx) % cfg.dataWays);
    linkHead(tidx, didx);
    tagMapV[static_cast<size_t>(tidx)] = newMap;
    tagDir.setFlag(tidx, TagDirty, true);
    ++ctr->mtagArray.writes;
    ++ctr->dataArray.writes;
    observeClean();
}

bool
DoppelgangerCache::contains(Addr addr) const
{
    return findTag(addr) >= 0;
}

template <typename Visitor>
void
DoppelgangerCache::visitBlocks(Visitor &&visit) const
{
    for (u32 s = 0; s < tagDir.sets(); ++s) {
        for (u32 w = 0; w < cfg.tagWays; ++w) {
            const i32 tidx = tagIndex(s, w);
            if (!tagDir.valid(tidx))
                continue;
            LlcBlockInfo info;
            info.addr = tagAddr(tidx);
            info.data =
                blocks[static_cast<size_t>(dataIndexOfTag(tidx))]
                    .data();
            info.dirty = tagDir.flag(tidx, TagDirty);
            info.approx = !tagDir.flag(tidx, TagPrecise);
            const ApproxRegion *region =
                registry ? registry->find(info.addr) : nullptr;
            info.type = region ? region->type : cfg.defaultType;
            visit(info);
        }
    }
}

void
DoppelgangerCache::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    visitBlocks([&](const LlcBlockInfo &info) { visit(info); });
}

void
DoppelgangerCache::flush()
{
    for (u32 s = 0; s < tagDir.sets(); ++s) {
        for (u32 w = 0; w < cfg.tagWays; ++w) {
            const i32 tidx = tagIndex(s, w);
            if (tagDir.valid(tidx))
                evictTagEntry(tidx);
        }
    }
    tagDir.invalidateAll();
    dataDir.invalidateAll();
}

unsigned
DoppelgangerCache::tagsSharingWith(Addr addr) const
{
    const i32 tidx = findTag(addr);
    if (tidx < 0)
        return 0;
    const i32 didx = dataIndexOfTag(tidx);
    unsigned count = 0;
    for (i32 cur = dataHeadV[static_cast<size_t>(didx)]; cur >= 0;
         cur = tagNextV[static_cast<size_t>(cur)])
        ++count;
    return count;
}

bool
DoppelgangerCache::sameDataEntry(Addr a, Addr b) const
{
    const i32 ta = findTag(a);
    const i32 tb = findTag(b);
    if (ta < 0 || tb < 0)
        return false;
    return dataIndexOfTag(ta) == dataIndexOfTag(tb);
}

const u8 *
DoppelgangerCache::peekBlock(Addr addr) const
{
    const i32 tidx = findTag(addr);
    if (tidx < 0)
        return nullptr;
    return blocks[static_cast<size_t>(dataIndexOfTag(tidx))].data();
}

bool
DoppelgangerCache::checkInvariants(std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    const u64 totalTags =
        static_cast<u64>(tagDir.sets()) * cfg.tagWays;
    const u64 totalData =
        static_cast<u64>(dataDir.sets()) * cfg.dataWays;

    // Pass 1: every valid tag resolves; count tags per data entry.
    // resolved[] keeps each approximate tag's MTag match for passes 2
    // and 5.
    std::vector<u64> expected(totalData, 0);
    std::vector<i32> resolved(totalTags, -1);
    for (u64 i = 0; i < totalTags; ++i) {
        const i32 tidx = static_cast<i32>(i);
        if (!tagDir.valid(tidx))
            continue;
        const u64 map = tagMapV[i];
        i32 didx;
        if (tagDir.flag(tidx, TagPrecise)) {
            didx = static_cast<i32>(map);
            if (didx < 0 || static_cast<u64>(didx) >= totalData)
                return fail("precise tag points out of range");
            if (!dataDir.valid(didx) ||
                !dataDir.flag(didx, DataPrecise))
                return fail("precise tag points at invalid entry");
            if (tagPrevV[i] != -1 || tagNextV[i] != -1)
                return fail("precise tag has list links");
            if (dataHeadV[static_cast<size_t>(didx)] != tidx)
                return fail("precise entry head mismatch");
        } else {
            didx = findDataByMap(map);
            if (didx < 0)
                return fail("tag's map has no data entry");
            resolved[i] = didx;
        }
        ++expected[static_cast<u64>(didx)];
    }

    // Pass 2: each data entry's list is consistent and complete.
    for (u64 d = 0; d < totalData; ++d) {
        const i32 didx = static_cast<i32>(d);
        if (!dataDir.valid(didx)) {
            if (expected[d] != 0)
                return fail("tags point at an invalid data entry");
            continue;
        }
        if (dataHeadV[d] < 0)
            return fail("valid data entry with empty tag list");
        u64 walked = 0;
        i32 prev = -1;
        i32 cur = dataHeadV[d];
        const bool precise = dataDir.flag(didx, DataPrecise);
        while (cur >= 0) {
            // Corrupted pointers must be reported, never dereferenced.
            if (static_cast<u64>(cur) >= totalTags)
                return fail("list pointer out of range");
            if (!tagDir.valid(cur))
                return fail("list contains an invalid tag");
            if (tagPrevV[static_cast<size_t>(cur)] != prev)
                return fail("prev pointer inconsistent");
            if (!precise) {
                // Pass 1 resolved only the approximate tags; a precise
                // tag spliced into this list is resolved here.
                const i32 at = tagDir.flag(cur, TagPrecise)
                    ? findDataByMap(tagMapV[static_cast<size_t>(cur)])
                    : resolved[static_cast<size_t>(cur)];
                if (at != didx)
                    return fail("listed tag maps elsewhere");
            }
            prev = cur;
            cur = tagNextV[static_cast<size_t>(cur)];
            if (++walked > totalTags)
                return fail("tag list cycle");
        }
        if (walked != expected[d])
            return fail("list length disagrees with pointing tags");
    }

    // SoA-specific passes (the reference keeps these properties inside
    // one struct; here they span the directory and the field arenas).

    // Pass 3: the directories' incremental valid counts agree with a
    // recount of their flag bytes.
    u64 tagsValid = 0;
    for (u64 i = 0; i < totalTags; ++i)
        tagsValid += tagDir.valid(static_cast<i32>(i)) ? 1 : 0;
    if (tagsValid != tagDir.validCount())
        return fail("tag directory valid count desynced");
    u64 dataValid = 0;
    for (u64 d = 0; d < totalData; ++d)
        dataValid += dataDir.valid(static_cast<i32>(d)) ? 1 : 0;
    if (dataValid != dataDir.validCount())
        return fail("data directory valid count desynced");

    // Pass 4: pool hygiene — free (invalid) slots must carry null
    // links, so a later re-allocation can never inherit a stale index.
    for (u64 i = 0; i < totalTags; ++i) {
        if (tagDir.valid(static_cast<i32>(i)))
            continue;
        if (tagPrevV[i] != -1 || tagNextV[i] != -1)
            return fail("free tag slot holds stale list links");
    }

    // Pass 5: every approximate tag's cached data slot is the entry its
    // map resolves to, so dataIndexOfTag may skip the MTag probe.
    for (u64 i = 0; i < totalTags; ++i) {
        if (resolved[i] >= 0 && tagDataV[i] != resolved[i])
            return fail("tag's cached data slot disagrees with its map");
    }
    return true;
}

std::optional<u64>
DoppelgangerCache::mapOf(Addr addr) const
{
    const i32 tidx = findTag(addr);
    if (tidx < 0 || tagDir.flag(tidx, TagPrecise))
        return std::nullopt;
    return tagMapV[static_cast<size_t>(tidx)];
}

void
DoppelgangerCache::injectFaults()
{
    if (!faults)
        return;
    faults->step();
    if (faults->draw(FaultDomain::LlcData))
        injectDataFault();
    bool structural = false;
    if (faults->draw(FaultDomain::TagMeta))
        structural |= injectTagMetaFault();
    if (faults->draw(FaultDomain::MTagMeta))
        structural |= injectMTagMetaFault();
    // Repair immediately so every normal operation path below always
    // runs on structurally consistent metadata.
    if (structural)
        selfCheckAndRepair();
}

void
DoppelgangerCache::injectDataFault()
{
    const u64 total = static_cast<u64>(dataDir.sets()) * cfg.dataWays;
    const u64 slot = faults->pick(total);
    const u32 bit = static_cast<u32>(faults->pick(blockBytes * 8));
    const i32 didx = static_cast<i32>(slot);
    // An invalid pick lands in an unused cell; precise entries live in
    // the reliable (non-voltage-scaled) part of the array.
    if (!dataDir.valid(didx) || dataDir.flag(didx, DataPrecise))
        return;

    // The flip is served to every tag sharing this entry; quantify it
    // with the head tag's region parameters.
    const i32 head = dataHeadV[slot];
    const MapParams p =
        head >= 0 ? paramsFor(tagAddr(head)) : paramsFor(0);
    BlockData &block = blocks[slot];
    const unsigned elem = bit / elemBits(p.type);
    const double before = blockElement(block.data(), p.type, elem);
    block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    const double after = blockElement(block.data(), p.type, elem);

    faults->record(FaultDomain::LlcData, slot, 0, bit);
    ++ctr->faultsInjected;
    if (guardrail) {
        // The flipped element's own normalized error, not the block
        // mean: a consumer of that element sees the full deviation, and
        // averaging a single corrupt value over 16 clean neighbours
        // would hide exactly the rare catastrophic flips (sign or
        // exponent bits) the guardrail exists to catch.
        const double span = std::max(p.maxValue - p.minValue, 1e-30);
        double err = std::abs(after - before) / span;
        if (!std::isfinite(err) || err > 1.0)
            err = 1.0;
        guardrail->observeError(err);
    }
}

bool
DoppelgangerCache::injectTagMetaFault()
{
    const u64 totalTags = static_cast<u64>(tagDir.sets()) * cfg.tagWays;
    const u64 totalData =
        static_cast<u64>(dataDir.sets()) * cfg.dataWays;
    const i32 idx = static_cast<i32>(faults->pick(totalTags));
    // Fields: 0 = map value, 1 = prev, 2 = next, 3 = dirty bit,
    // 4 = precise bit (unified mode only).
    const u32 field =
        static_cast<u32>(faults->pick(cfg.unified ? 5 : 4));
    if (!tagDir.valid(idx))
        return false; // flip in a dead cell: unobservable

    switch (field) {
      case 0: {
        // Map value — or the direct data-entry pointer when precise.
        unsigned width;
        if (tagDir.flag(idx, TagPrecise))
            width = ceilLog2(std::max<u64>(totalData, 2)) + 1;
        else if (hasMapOverride)
            width = 64; // content-hash override stores full 64-bit maps
        else
            width = mapWidth(paramsFor(tagAddr(idx)), cfg.hashMode);
        const u32 bit = static_cast<u32>(faults->pick(width));
        tagMapV[static_cast<size_t>(idx)] ^= 1ULL << bit;
        faults->record(FaultDomain::TagMeta, static_cast<u64>(idx),
                       field, bit);
        ++ctr->faultsInjected;
        return true;
      }
      case 1:
      case 2: {
        // List pointer: flip within the stored index width plus one
        // spare bit, so null (-1) can corrupt into garbage too. The
        // pointers are arena indices now; the flip targets the arena
        // slot directly.
        const unsigned width =
            ceilLog2(std::max<u64>(totalTags, 2)) + 1;
        const u32 bit = static_cast<u32>(faults->pick(width));
        i32 &ptr = field == 1 ? tagPrevV[static_cast<size_t>(idx)]
                              : tagNextV[static_cast<size_t>(idx)];
        ptr = static_cast<i32>(static_cast<u32>(ptr) ^ (1u << bit));
        faults->record(FaultDomain::TagMeta, static_cast<u64>(idx),
                       field, bit);
        ++ctr->faultsInjected;
        return true;
      }
      case 3:
        // Dirty bit: undetectable by structural checks. A spurious set
        // costs one extra writeback; a cleared one loses an update.
        tagDir.setFlag(idx, TagDirty, !tagDir.flag(idx, TagDirty));
        faults->record(FaultDomain::TagMeta, static_cast<u64>(idx),
                       field, 0);
        ++ctr->faultsInjected;
        return false;
      default:
        tagDir.setFlag(idx, TagPrecise,
                       !tagDir.flag(idx, TagPrecise));
        faults->record(FaultDomain::TagMeta, static_cast<u64>(idx),
                       field, 0);
        ++ctr->faultsInjected;
        return true;
    }
}

bool
DoppelgangerCache::injectMTagMetaFault()
{
    const u64 totalTags = static_cast<u64>(tagDir.sets()) * cfg.tagWays;
    const u64 totalData =
        static_cast<u64>(dataDir.sets()) * cfg.dataWays;
    const i32 idx = static_cast<i32>(faults->pick(totalData));
    // Fields: 0 = map tag, 1 = head pointer, 2 = precise bit (unified).
    const u32 field =
        static_cast<u32>(faults->pick(cfg.unified ? 3 : 2));
    if (!dataDir.valid(idx))
        return false;

    switch (field) {
      case 0: {
        // Stored map tag (the block address for precise entries).
        const i32 head = dataHeadV[static_cast<size_t>(idx)];
        unsigned width;
        if (dataDir.flag(idx, DataPrecise))
            width = 32; // block-address tag
        else if (hasMapOverride)
            width = 64;
        else if (head >= 0 && static_cast<u64>(head) < totalTags)
            width = mapWidth(paramsFor(tagAddr(head)), cfg.hashMode);
        else
            width = cfg.mapBits;
        const u32 bit = static_cast<u32>(faults->pick(width));
        dataDir.setKey(idx, dataDir.key(idx) ^ (1ULL << bit));
        faults->record(FaultDomain::MTagMeta, static_cast<u64>(idx),
                       field, bit);
        ++ctr->faultsInjected;
        return true;
      }
      case 1: {
        const unsigned width =
            ceilLog2(std::max<u64>(totalTags, 2)) + 1;
        const u32 bit = static_cast<u32>(faults->pick(width));
        i32 &head = dataHeadV[static_cast<size_t>(idx)];
        head = static_cast<i32>(static_cast<u32>(head) ^ (1u << bit));
        faults->record(FaultDomain::MTagMeta, static_cast<u64>(idx),
                       field, bit);
        ++ctr->faultsInjected;
        return true;
      }
      default:
        dataDir.setFlag(idx, DataPrecise,
                        !dataDir.flag(idx, DataPrecise));
        faults->record(FaultDomain::MTagMeta, static_cast<u64>(idx),
                       field, 0);
        ++ctr->faultsInjected;
        return true;
    }
}

bool
DoppelgangerCache::selfCheckAndRepair()
{
    std::string why;
    if (checkInvariants(&why))
        return false; // the flip was structurally silent

    ++ctr->faultsDetected;
    if (faults)
        faults->noteDetected();

    const auto [tagsDropped, entriesDropped] = repairMetadata();
    ++ctr->faultsRepaired;
    ctr->repairTagsDropped += tagsDropped;
    ctr->repairEntriesDropped += entriesDropped;
    if (faults)
        faults->noteRepair(tagsDropped, entriesDropped);

    std::string after;
    if (!checkInvariants(&after)) {
        panic("doppelganger repair failed to restore invariants: %s "
              "(detected: %s)", after.c_str(), why.c_str());
    }
    return true;
}

std::pair<u64, u64>
DoppelgangerCache::repairMetadata()
{
    const u64 totalTags = static_cast<u64>(tagDir.sets()) * cfg.tagWays;
    const u64 totalData =
        static_cast<u64>(dataDir.sets()) * cfg.dataWays;
    u64 tagsDropped = 0;
    u64 entriesDropped = 0;

    // Phase 1: forget every list. The surviving per-tag metadata (map
    // values, valid bits) is the ground truth lists are rebuilt from.
    for (u64 i = 0; i < totalData; ++i) {
        if (dataDir.valid(static_cast<i32>(i)))
            dataHeadV[i] = -1;
    }

    // Phase 2: relink every valid tag from its own map field. A tag
    // whose map no longer resolves has lost its shared data for good,
    // but a dirty private copy upstream still holds exact values: drop
    // the tag, rescuing that copy to memory (inclusion demands the
    // back-invalidation either way).
    for (u64 i = 0; i < totalTags; ++i) {
        const i32 tidx = static_cast<i32>(i);
        if (!tagDir.valid(tidx))
            continue;
        bool resolved;
        if (tagDir.flag(tidx, TagPrecise)) {
            const i32 didx = static_cast<i32>(tagMapV[i]);
            resolved =
                didx >= 0 && static_cast<u64>(didx) < totalData;
            if (resolved) {
                // Only the rightful, exclusive owner may reclaim a
                // precise entry.
                resolved = dataDir.valid(didx) &&
                    dataDir.flag(didx, DataPrecise) &&
                    dataHeadV[static_cast<size_t>(didx)] < 0 &&
                    dataDir.key(didx) == blockAlign(tagAddr(tidx));
                if (resolved) {
                    dataHeadV[static_cast<size_t>(didx)] = tidx;
                    tagPrevV[i] = -1;
                    tagNextV[i] = -1;
                }
            }
        } else {
            const i32 didx = findDataByMap(tagMapV[i]);
            resolved = didx >= 0;
            if (resolved)
                linkHead(tidx, didx);
        }
        if (!resolved) {
            BlockData upward;
            if (invalidateUpward(tagAddr(tidx), upward.data())) {
                mem.writeBlock(tagAddr(tidx), upward.data());
                ++ctr->dirtyWritebacks;
            }
            tagDir.setValid(tidx, false);
            tagPrevV[i] = -1;
            tagNextV[i] = -1;
            ++tagsDropped;
        }
    }

    // Phase 3: free the entries no surviving tag claims.
    for (u64 i = 0; i < totalData; ++i) {
        if (dataDir.valid(static_cast<i32>(i)) && dataHeadV[i] < 0) {
            dataDir.setValid(static_cast<i32>(i), false);
            ++entriesDropped;
        }
    }
    return {tagsDropped, entriesDropped};
}

void
DoppelgangerCache::observeSubstitution(Addr addr, const u8 *exact,
                                       i32 data_idx)
{
    if (!guardrail)
        return;
    const MapParams p = paramsFor(addr);
    guardrail->observeError(blockSubstitutionError(
        blocks[static_cast<size_t>(data_idx)].data(), exact, p.type,
        p.maxValue - p.minValue));
}

void
DoppelgangerCache::observeClean()
{
    if (guardrail)
        guardrail->observeClean();
}

} // namespace dopp
