#include "doppelganger_ref.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "harness/llc_factory.hh"
#include "util/bitfield.hh"
#include "util/logging.hh"

namespace dopp
{

RefDoppelgangerCache::RefDoppelgangerCache(
    MainMemory &memory, const DoppConfig &config,
    const ApproxRegistry *registry, StatRegistry *stat_registry,
    const std::string &stat_group)
    : DoppEngine(memory, config, registry, stat_registry, stat_group),
      tags(config.tagEntries / config.tagWays, config.tagWays,
           config.tagPolicy),
      tagSlicer(config.tagEntries / config.tagWays),
      data(config.dataEntries / config.dataWays, config.dataWays,
           config.dataPolicy)
{
    initLlcCounters();
}

i32
RefDoppelgangerCache::tagIndex(u32 set, u32 way) const
{
    return static_cast<i32>(set * cfg.tagWays + way);
}

RefDoppelgangerCache::TagEntry &
RefDoppelgangerCache::tagAt(i32 idx)
{
    return tags.at(static_cast<u32>(idx) / cfg.tagWays,
                   static_cast<u32>(idx) % cfg.tagWays);
}

const RefDoppelgangerCache::TagEntry &
RefDoppelgangerCache::tagAt(i32 idx) const
{
    return tags.at(static_cast<u32>(idx) / cfg.tagWays,
                   static_cast<u32>(idx) % cfg.tagWays);
}

Addr
RefDoppelgangerCache::tagAddr(i32 idx) const
{
    const u32 set = static_cast<u32>(idx) / cfg.tagWays;
    return tagSlicer.addr(set, tagAt(idx).tag);
}

i32
RefDoppelgangerCache::findTag(Addr addr) const
{
    const u32 set = tagSlicer.set(addr);
    const int way = tags.findWay(set, tagSlicer.tag(addr));
    return way < 0 ? -1 : tagIndex(set, static_cast<u32>(way));
}

u32
RefDoppelgangerCache::dataSetOfMap(u64 map) const
{
    if (!cfg.hashDataSetIndex) {
        // Paper-faithful indexing (Fig 4): the lower portion of the
        // map selects the set. (Generalized to modulo so fractional
        // data arrays — e.g. uniDoppelgänger's 3/4 — work; identical
        // to the low bits for power-of-two set counts.)
        return static_cast<u32>(map % data.sets());
    }
    // Hashed indexing (our default): a multiplicative mix spreads
    // structured data (e.g. grid coordinates) across all sets. Entry
    // identity is unchanged — entries always match on the full map.
    u64 x = map;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<u32>(x % data.sets());
}

i32
RefDoppelgangerCache::findDataByMap(u64 map) const
{
    const u32 set = dataSetOfMap(map);
    for (u32 w = 0; w < cfg.dataWays; ++w) {
        const DataEntry &e = data.at(set, w);
        if (e.valid && !e.precise && e.tag == map)
            return static_cast<i32>(set * cfg.dataWays + w);
    }
    return -1;
}

RefDoppelgangerCache::DataEntry &
RefDoppelgangerCache::dataAt(i32 idx)
{
    return data.at(static_cast<u32>(idx) / cfg.dataWays,
                   static_cast<u32>(idx) % cfg.dataWays);
}

const RefDoppelgangerCache::DataEntry &
RefDoppelgangerCache::dataAt(i32 idx) const
{
    return data.at(static_cast<u32>(idx) / cfg.dataWays,
                   static_cast<u32>(idx) % cfg.dataWays);
}

i32
RefDoppelgangerCache::dataIndexOfTag(const TagEntry &t) const
{
    DOPP_ASSERT(t.valid);
    if (t.precise)
        return static_cast<i32>(t.map);
    const i32 idx = findDataByMap(t.map);
    if (idx < 0)
        panic("doppelganger invariant broken: tag's map %llu has no "
              "data entry", static_cast<unsigned long long>(t.map));
    return idx;
}

void
RefDoppelgangerCache::linkHead(i32 tag_idx, i32 data_idx)
{
    DataEntry &d = dataAt(data_idx);
    TagEntry &t = tagAt(tag_idx);
    t.prev = -1;
    t.next = d.head;
    if (d.head >= 0)
        tagAt(d.head).prev = tag_idx;
    d.head = tag_idx;
}

bool
RefDoppelgangerCache::unlink(i32 tag_idx, i32 data_idx)
{
    TagEntry &t = tagAt(tag_idx);
    if (t.prev >= 0)
        tagAt(t.prev).next = t.next;
    else
        dataAt(data_idx).head = t.next;
    if (t.next >= 0)
        tagAt(t.next).prev = t.prev;
    t.prev = -1;
    t.next = -1;
    return dataAt(data_idx).head < 0;
}

void
RefDoppelgangerCache::writebackTag(i32 tag_idx, const DataEntry &entry)
{
    const TagEntry &t = tagAt(tag_idx);
    const Addr addr = tagAddr(tag_idx);

    // Inclusive LLC: drop private copies; a dirty private copy is the
    // newest version and supersedes the shared data entry.
    BlockData upward;
    const bool upwardDirty = invalidateUpward(addr, upward.data());
    if (upwardDirty) {
        mem.writeBlock(addr, upward.data());
        ++ctr->dirtyWritebacks;
    } else if (t.dirty) {
        ++ctr->dataArray.reads;
        mem.writeBlock(addr, entry.data.data());
        ++ctr->dirtyWritebacks;
    }
}

void
RefDoppelgangerCache::evictDataEntry(i32 data_idx)
{
    DataEntry &d = dataAt(data_idx);
    DOPP_ASSERT(d.valid);

    // Evict every tag associated with this block; each may require a
    // back-invalidation and a writeback (Sec 3.5).
    u64 count = 0;
    i32 cur = d.head;
    while (cur >= 0) {
        TagEntry &t = tagAt(cur);
        const i32 next = t.next;
        writebackTag(cur, d);
        setTagValid(cur, false);
        t.prev = -1;
        t.next = -1;
        ++ctr->evictions;
        ++count;
        cur = next;
    }
    d.head = -1;
    setDataValid(data_idx, false);
    ++ctr->dataEvictions;
    ctr->linkedTagsSum += count;
    ++ctr->linkedTagsSamples;
}

void
RefDoppelgangerCache::evictTagEntry(i32 tag_idx)
{
    TagEntry &t = tagAt(tag_idx);
    DOPP_ASSERT(t.valid);

    const i32 data_idx = dataIndexOfTag(t);
    DataEntry &d = dataAt(data_idx);

    writebackTag(tag_idx, d);
    const bool empty = unlink(tag_idx, data_idx);
    setTagValid(tag_idx, false);
    ++ctr->evictions;

    if (empty) {
        // Sole tag: its data entry goes too (Sec 3.5).
        setDataValid(data_idx, false);
        ++ctr->dataEvictions;
        ctr->linkedTagsSum += 1;
        ++ctr->linkedTagsSamples;
    }
}

u64
RefDoppelgangerCache::linkedTagCount(i32 data_idx, u64 cap) const
{
    u64 n = 0;
    for (i32 cur = dataAt(data_idx).head; cur >= 0 && n < cap;
         cur = tagAt(cur).next) {
        ++n;
    }
    return n;
}

i32
RefDoppelgangerCache::allocateDataEntry(u32 set)
{
    u32 way = data.victimWay(set);
    i32 idx = static_cast<i32>(set * cfg.dataWays + way);

    if (cfg.tagCountAwareData && dataAt(idx).valid) {
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

    if (dataAt(idx).valid)
        evictDataEntry(idx);
    return idx;
}

void
RefDoppelgangerCache::insertBlock(Addr addr, const u8 *bytes)
{
    // Allocate a tag entry (evicting the LRU tag if needed).
    const u32 tset = tagSlicer.set(addr);
    const u32 tway = tags.victimWay(tset);
    const i32 tidx = tagIndex(tset, tway);
    if (tagAt(tidx).valid)
        evictTagEntry(tidx);

    TagEntry &t = tagAt(tidx);
    setTagValid(tidx, true);
    t.tag = tagSlicer.tag(addr);
    t.dirty = false;
    t.prev = -1;
    t.next = -1;
    tags.touchInsert(tset, tway);
    ++ctr->tagArray.writes;

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
        t.precise = true;
        const u32 dset = dataSetOfMap(addr >> blockOffsetBits);
        const i32 didx = allocateDataEntry(dset);
        DataEntry &d = dataAt(didx);
        setDataValid(didx, true);
        d.precise = true;
        d.tag = blockAlign(addr);
        d.head = tidx;
        std::memcpy(d.data.data(), bytes, blockBytes);
        data.touchInsert(dset, static_cast<u32>(didx) % cfg.dataWays);
        t.map = static_cast<u64>(didx);
        ++ctr->mtagArray.writes;
        ++ctr->dataArray.writes;
        observeClean();
        return;
    }

    t.precise = false;
    const u64 map = mapFor(addr, bytes);
    ++ctr->mapGens;
    ++ctr->mtagArray.reads;

    const i32 existing = findDataByMap(map);
    if (existing >= 0) {
        // A similar block exists: share its entry, drop the fetched
        // data (Sec 3.3 "Similar Data Block Exists"). Future reads
        // serve the doppelgänger — report the substitution error.
        linkHead(tidx, existing);
        t.map = map;
        data.touch(static_cast<u32>(existing) / cfg.dataWays,
                   static_cast<u32>(existing) % cfg.dataWays);
        observeSubstitution(addr, bytes, dataAt(existing));
        return;
    }

    // No similar block: allocate (evicting a victim and all its tags).
    const u32 dset = dataSetOfMap(map);
    const i32 didx = allocateDataEntry(dset);
    DataEntry &d = dataAt(didx);
    setDataValid(didx, true);
    d.precise = false;
    d.tag = map;
    d.head = -1;
    std::memcpy(d.data.data(), bytes, blockBytes);
    data.touchInsert(dset, static_cast<u32>(didx) % cfg.dataWays);
    linkHead(tidx, didx);
    t.map = map;
    ++ctr->mtagArray.writes;
    ++ctr->dataArray.writes;
    observeClean();
}

LastLevelCache::FetchResult
RefDoppelgangerCache::fetch(Addr addr, u8 *out)
{
    injectFaults();
    ++ctr->fetches;
    ++ctr->tagArray.reads;

    const i32 tidx = findTag(addr);
    if (tidx >= 0) {
        ++ctr->fetchHits;
        TagEntry &t = tagAt(tidx);
        tags.touch(static_cast<u32>(tidx) / cfg.tagWays,
                   static_cast<u32>(tidx) % cfg.tagWays);

        // Second sequential lookup: the MTag array (Sec 3.2 step 2).
        ++ctr->mtagArray.reads;
        const i32 didx = dataIndexOfTag(t);
        DataEntry &d = dataAt(didx);
        ++ctr->dataArray.reads;
        data.touch(static_cast<u32>(didx) / cfg.dataWays,
                   static_cast<u32>(didx) % cfg.dataWays);
        std::memcpy(out, d.data.data(), blockBytes);
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
RefDoppelgangerCache::writeback(Addr addr, const u8 *bytes)
{
    injectFaults();
    ++ctr->writebacksIn;
    ++ctr->tagArray.reads;

    const i32 tidx = findTag(addr);
    if (tidx < 0) {
        // Not resident (inclusion is maintained by the hierarchy, so
        // this only happens for orphan drains); go straight to memory.
        mem.writeBlock(addr, bytes);
        ++ctr->dirtyWritebacks;
        observeClean();
        return;
    }

    TagEntry &t = tagAt(tidx);
    tags.touch(static_cast<u32>(tidx) / cfg.tagWays,
               static_cast<u32>(tidx) % cfg.tagWays);

    if (t.precise) {
        DataEntry &d = dataAt(static_cast<i32>(t.map));
        std::memcpy(d.data.data(), bytes, blockBytes);
        t.dirty = true;
        ++ctr->dataArray.writes;
        observeClean();
        return;
    }

    // Recompute the map with the new values (Sec 3.4).
    const u64 newMap = mapFor(addr, bytes);
    ++ctr->mapGens;

    if (newMap == t.map) {
        // Silent or similarity-preserving store: dirty bit only; the
        // written values are dropped in favor of the shared entry.
        t.dirty = true;
        if (guardrail)
            observeSubstitution(addr, bytes, dataAt(dataIndexOfTag(t)));
        return;
    }

    // The map changed: move this tag to the new map's list.
    ++ctr->mtagArray.reads;
    const i32 oldIdx = dataIndexOfTag(t);
    if (unlink(tidx, oldIdx)) {
        // This tag was the sole user; the entry's data is superseded
        // by this very write, so it is freed without a writeback.
        setDataValid(oldIdx, false);
        ++ctr->dataEvictions;
    }

    const i32 existing = findDataByMap(newMap);
    if (existing >= 0) {
        // A block with the new map exists: the written values are
        // effectively ignored; this write made the block similar to
        // one already cached (Sec 3.4).
        linkHead(tidx, existing);
        t.map = newMap;
        t.dirty = true;
        data.touch(static_cast<u32>(existing) / cfg.dataWays,
                   static_cast<u32>(existing) % cfg.dataWays);
        observeSubstitution(addr, bytes, dataAt(existing));
        return;
    }

    const u32 dset = dataSetOfMap(newMap);
    const i32 didx = allocateDataEntry(dset);
    DataEntry &d = dataAt(didx);
    setDataValid(didx, true);
    d.precise = false;
    d.tag = newMap;
    d.head = -1;
    std::memcpy(d.data.data(), bytes, blockBytes);
    data.touchInsert(dset, static_cast<u32>(didx) % cfg.dataWays);
    linkHead(tidx, didx);
    t.map = newMap;
    t.dirty = true;
    ++ctr->mtagArray.writes;
    ++ctr->dataArray.writes;
    observeClean();
}

bool
RefDoppelgangerCache::contains(Addr addr) const
{
    return findTag(addr) >= 0;
}

void
RefDoppelgangerCache::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    for (u32 s = 0; s < tags.sets(); ++s) {
        for (u32 w = 0; w < cfg.tagWays; ++w) {
            const TagEntry &t = tags.at(s, w);
            if (!t.valid)
                continue;
            const i32 tidx = tagIndex(s, w);
            LlcBlockInfo info;
            info.addr = tagAddr(tidx);
            info.data = dataAt(dataIndexOfTag(t)).data.data();
            info.dirty = t.dirty;
            info.approx = !t.precise;
            const ApproxRegion *region =
                registry ? registry->find(info.addr) : nullptr;
            info.type = region ? region->type : cfg.defaultType;
            visit(info);
        }
    }
}

void
RefDoppelgangerCache::flush()
{
    for (u32 s = 0; s < tags.sets(); ++s) {
        for (u32 w = 0; w < cfg.tagWays; ++w) {
            const i32 tidx = tagIndex(s, w);
            if (tagAt(tidx).valid)
                evictTagEntry(tidx);
        }
    }
    tags.invalidateAll();
    data.invalidateAll();
}

unsigned
RefDoppelgangerCache::tagsSharingWith(Addr addr) const
{
    const i32 tidx = findTag(addr);
    if (tidx < 0)
        return 0;
    const i32 didx = dataIndexOfTag(tagAt(tidx));
    unsigned count = 0;
    for (i32 cur = dataAt(didx).head; cur >= 0; cur = tagAt(cur).next)
        ++count;
    return count;
}

bool
RefDoppelgangerCache::sameDataEntry(Addr a, Addr b) const
{
    const i32 ta = findTag(a);
    const i32 tb = findTag(b);
    if (ta < 0 || tb < 0)
        return false;
    return dataIndexOfTag(tagAt(ta)) == dataIndexOfTag(tagAt(tb));
}

const u8 *
RefDoppelgangerCache::peekBlock(Addr addr) const
{
    const i32 tidx = findTag(addr);
    if (tidx < 0)
        return nullptr;
    return dataAt(dataIndexOfTag(tagAt(tidx))).data.data();
}

bool
RefDoppelgangerCache::checkInvariants(std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    const u64 totalTags =
        static_cast<u64>(tags.sets()) * cfg.tagWays;
    const u64 totalData =
        static_cast<u64>(data.sets()) * cfg.dataWays;

    // Pass 1: every valid tag resolves; count tags per data entry.
    std::vector<u64> expected(totalData, 0);
    for (u64 i = 0; i < totalTags; ++i) {
        const TagEntry &t = tagAt(static_cast<i32>(i));
        if (!t.valid)
            continue;
        i32 didx;
        if (t.precise) {
            didx = static_cast<i32>(t.map);
            if (didx < 0 || static_cast<u64>(didx) >= totalData)
                return fail("precise tag points out of range");
            if (!dataAt(didx).valid || !dataAt(didx).precise)
                return fail("precise tag points at invalid entry");
            if (t.prev != -1 || t.next != -1)
                return fail("precise tag has list links");
            if (dataAt(didx).head != static_cast<i32>(i))
                return fail("precise entry head mismatch");
        } else {
            didx = findDataByMap(t.map);
            if (didx < 0)
                return fail("tag's map has no data entry");
        }
        ++expected[static_cast<u64>(didx)];
    }

    // Pass 2: each data entry's list is consistent and complete.
    for (u64 d = 0; d < totalData; ++d) {
        const DataEntry &e = dataAt(static_cast<i32>(d));
        if (!e.valid) {
            if (expected[d] != 0)
                return fail("tags point at an invalid data entry");
            continue;
        }
        if (e.head < 0)
            return fail("valid data entry with empty tag list");
        u64 walked = 0;
        i32 prev = -1;
        i32 cur = e.head;
        while (cur >= 0) {
            // Corrupted pointers must be reported, never dereferenced.
            if (static_cast<u64>(cur) >= totalTags)
                return fail("list pointer out of range");
            const TagEntry &t = tagAt(cur);
            if (!t.valid)
                return fail("list contains an invalid tag");
            if (t.prev != prev)
                return fail("prev pointer inconsistent");
            if (!e.precise &&
                findDataByMap(t.map) != static_cast<i32>(d)) {
                return fail("listed tag maps elsewhere");
            }
            prev = cur;
            cur = t.next;
            if (++walked > totalTags)
                return fail("tag list cycle");
        }
        if (walked != expected[d])
            return fail("list length disagrees with pointing tags");
    }
    return true;
}

std::optional<u64>
RefDoppelgangerCache::mapOf(Addr addr) const
{
    const i32 tidx = findTag(addr);
    if (tidx < 0 || tagAt(tidx).precise)
        return std::nullopt;
    return tagAt(tidx).map;
}

void
RefDoppelgangerCache::injectFaults()
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
RefDoppelgangerCache::injectDataFault()
{
    const u64 total = static_cast<u64>(data.sets()) * cfg.dataWays;
    const u64 slot = faults->pick(total);
    const u32 bit = static_cast<u32>(faults->pick(blockBytes * 8));
    DataEntry &d = dataAt(static_cast<i32>(slot));
    // An invalid pick lands in an unused cell; precise entries live in
    // the reliable (non-voltage-scaled) part of the array.
    if (!d.valid || d.precise)
        return;

    // The flip is served to every tag sharing this entry; quantify it
    // with the head tag's region parameters.
    const MapParams p =
        d.head >= 0 ? paramsFor(tagAddr(d.head)) : paramsFor(0);
    const unsigned elem = bit / elemBits(p.type);
    const double before = blockElement(d.data.data(), p.type, elem);
    d.data[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    const double after = blockElement(d.data.data(), p.type, elem);

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
RefDoppelgangerCache::injectTagMetaFault()
{
    const u64 totalTags = static_cast<u64>(tags.sets()) * cfg.tagWays;
    const u64 totalData = static_cast<u64>(data.sets()) * cfg.dataWays;
    const i32 idx = static_cast<i32>(faults->pick(totalTags));
    // Fields: 0 = map value, 1 = prev, 2 = next, 3 = dirty bit,
    // 4 = precise bit (unified mode only).
    const u32 field =
        static_cast<u32>(faults->pick(cfg.unified ? 5 : 4));
    TagEntry &t = tagAt(idx);
    if (!t.valid)
        return false; // flip in a dead cell: unobservable

    switch (field) {
      case 0: {
        // Map value — or the direct data-entry pointer when precise.
        unsigned width;
        if (t.precise)
            width = ceilLog2(std::max<u64>(totalData, 2)) + 1;
        else if (hasMapOverride)
            width = 64; // content-hash override stores full 64-bit maps
        else
            width = mapWidth(paramsFor(tagAddr(idx)), cfg.hashMode);
        const u32 bit = static_cast<u32>(faults->pick(width));
        t.map ^= 1ULL << bit;
        faults->record(FaultDomain::TagMeta, static_cast<u64>(idx),
                       field, bit);
        ++ctr->faultsInjected;
        return true;
      }
      case 1:
      case 2: {
        // List pointer: flip within the stored index width plus one
        // spare bit, so null (-1) can corrupt into garbage too.
        const unsigned width =
            ceilLog2(std::max<u64>(totalTags, 2)) + 1;
        const u32 bit = static_cast<u32>(faults->pick(width));
        i32 &ptr = field == 1 ? t.prev : t.next;
        ptr = static_cast<i32>(static_cast<u32>(ptr) ^ (1u << bit));
        faults->record(FaultDomain::TagMeta, static_cast<u64>(idx),
                       field, bit);
        ++ctr->faultsInjected;
        return true;
      }
      case 3:
        // Dirty bit: undetectable by structural checks. A spurious set
        // costs one extra writeback; a cleared one loses an update.
        t.dirty = !t.dirty;
        faults->record(FaultDomain::TagMeta, static_cast<u64>(idx),
                       field, 0);
        ++ctr->faultsInjected;
        return false;
      default:
        t.precise = !t.precise;
        faults->record(FaultDomain::TagMeta, static_cast<u64>(idx),
                       field, 0);
        ++ctr->faultsInjected;
        return true;
    }
}

bool
RefDoppelgangerCache::injectMTagMetaFault()
{
    const u64 totalTags = static_cast<u64>(tags.sets()) * cfg.tagWays;
    const u64 totalData = static_cast<u64>(data.sets()) * cfg.dataWays;
    const i32 idx = static_cast<i32>(faults->pick(totalData));
    // Fields: 0 = map tag, 1 = head pointer, 2 = precise bit (unified).
    const u32 field =
        static_cast<u32>(faults->pick(cfg.unified ? 3 : 2));
    DataEntry &d = dataAt(idx);
    if (!d.valid)
        return false;

    switch (field) {
      case 0: {
        // Stored map tag (the block address for precise entries).
        unsigned width;
        if (d.precise)
            width = 32; // block-address tag
        else if (hasMapOverride)
            width = 64;
        else if (d.head >= 0 &&
                 static_cast<u64>(d.head) < totalTags)
            width = mapWidth(paramsFor(tagAddr(d.head)), cfg.hashMode);
        else
            width = cfg.mapBits;
        const u32 bit = static_cast<u32>(faults->pick(width));
        d.tag ^= 1ULL << bit;
        faults->record(FaultDomain::MTagMeta, static_cast<u64>(idx),
                       field, bit);
        ++ctr->faultsInjected;
        return true;
      }
      case 1: {
        const unsigned width =
            ceilLog2(std::max<u64>(totalTags, 2)) + 1;
        const u32 bit = static_cast<u32>(faults->pick(width));
        d.head =
            static_cast<i32>(static_cast<u32>(d.head) ^ (1u << bit));
        faults->record(FaultDomain::MTagMeta, static_cast<u64>(idx),
                       field, bit);
        ++ctr->faultsInjected;
        return true;
      }
      default:
        d.precise = !d.precise;
        faults->record(FaultDomain::MTagMeta, static_cast<u64>(idx),
                       field, 0);
        ++ctr->faultsInjected;
        return true;
    }
}

bool
RefDoppelgangerCache::selfCheckAndRepair()
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
RefDoppelgangerCache::repairMetadata()
{
    const u64 totalTags = static_cast<u64>(tags.sets()) * cfg.tagWays;
    const u64 totalData = static_cast<u64>(data.sets()) * cfg.dataWays;
    u64 tagsDropped = 0;
    u64 entriesDropped = 0;

    // Phase 1: forget every list. The surviving per-tag metadata (map
    // values, valid bits) is the ground truth lists are rebuilt from.
    for (u64 i = 0; i < totalData; ++i) {
        DataEntry &d = dataAt(static_cast<i32>(i));
        if (d.valid)
            d.head = -1;
    }

    // Phase 2: relink every valid tag from its own map field. A tag
    // whose map no longer resolves has lost its shared data for good,
    // but a dirty private copy upstream still holds exact values: drop
    // the tag, rescuing that copy to memory (inclusion demands the
    // back-invalidation either way).
    for (u64 i = 0; i < totalTags; ++i) {
        const i32 tidx = static_cast<i32>(i);
        TagEntry &t = tagAt(tidx);
        if (!t.valid)
            continue;
        bool resolved;
        if (t.precise) {
            const i32 didx = static_cast<i32>(t.map);
            resolved =
                didx >= 0 && static_cast<u64>(didx) < totalData;
            if (resolved) {
                DataEntry &d = dataAt(didx);
                // Only the rightful, exclusive owner may reclaim a
                // precise entry.
                resolved = d.valid && d.precise && d.head < 0 &&
                    d.tag == blockAlign(tagAddr(tidx));
                if (resolved) {
                    d.head = tidx;
                    t.prev = -1;
                    t.next = -1;
                }
            }
        } else {
            const i32 didx = findDataByMap(t.map);
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
            setTagValid(tidx, false);
            t.prev = -1;
            t.next = -1;
            ++tagsDropped;
        }
    }

    // Phase 3: free the entries no surviving tag claims.
    for (u64 i = 0; i < totalData; ++i) {
        DataEntry &d = dataAt(static_cast<i32>(i));
        if (d.valid && d.head < 0) {
            setDataValid(static_cast<i32>(i), false);
            ++entriesDropped;
        }
    }
    return {tagsDropped, entriesDropped};
}

void
RefDoppelgangerCache::observeSubstitution(Addr addr, const u8 *exact,
                                       const DataEntry &d)
{
    if (!guardrail)
        return;
    const MapParams p = paramsFor(addr);
    guardrail->observeError(blockSubstitutionError(
        d.data.data(), exact, p.type, p.maxValue - p.minValue));
}

void
RefDoppelgangerCache::observeClean()
{
    if (guardrail)
        guardrail->observeClean();
}

std::unique_ptr<DoppEngine>
makeRefDoppEngine(MainMemory &memory, const DoppConfig &config,
                  const ApproxRegistry *registry,
                  StatRegistry *stat_registry,
                  const std::string &stat_group)
{
    return std::make_unique<RefDoppelgangerCache>(
        memory, config, registry, stat_registry, stat_group);
}

void
registerRefLlcs()
{
    static const bool once = [] {
        registerBuiltinLlcs();
        registerDoppEngineLlcs(".ref", makeRefDoppEngine);
        return true;
    }();
    (void)once;
}

} // namespace dopp
