#include "hierarchy.hh"

#include <cstdio>
#include <cstring>

#include "util/logging.hh"

namespace dopp
{

HierCounters::HierCounters(StatGroup group)
    : accesses(group.counter("accesses", "core memory accesses")),
      loads(group.counter("loads", "core loads")),
      stores(group.counter("stores", "core stores")),
      l1Hits(group.counter("l1.hits", "L1 hits")),
      l1Misses(group.counter("l1.misses", "L1 misses")),
      l2Hits(group.counter("l2.hits", "L2 hits")),
      l2Misses(group.counter("l2.misses", "L2 misses")),
      upgrades(group.counter("upgrades",
                             "write hits needing ownership")),
      remoteFetches(group.counter(
          "remoteFetches", "blocks pulled out of a remote M copy")),
      invalidationsSent(group.counter("invalidationsSent",
                                      "coherence invalidations sent"))
{
    group.formula(
        "l2Mpka",
        [this] {
            const u64 n = accesses.value();
            return n ? 1000.0 * static_cast<double>(l2Misses.value()) /
                    static_cast<double>(n)
                     : 0.0;
        },
        "L2 misses per thousand core accesses");
}

// ---------------------------------------------------------------------
// CoherenceDirectory
// ---------------------------------------------------------------------

namespace
{

/** Initial directory capacity (slots); grows by doubling at half load. */
constexpr unsigned initialDirBits = 10;

} // namespace

CoherenceDirectory::CoherenceDirectory()
    : slots(size_t{1} << initialDirBits, Entry{emptyKey, 0, -1}),
      mask((size_t{1} << initialDirBits) - 1),
      shift(64 - initialDirBits)
{
}

CoherenceDirectory::Entry &
CoherenceDirectory::findOrInsert(Addr addr)
{
    for (size_t i = home(addr);; i = (i + 1) & mask) {
        Entry &e = slots[i];
        if (e.addr == addr)
            return e;
        if (e.addr != emptyKey)
            continue;
        if (2 * (used + 1) > slots.size()) {
            grow();
            return findOrInsert(addr);
        }
        e = Entry{addr, 0, -1};
        ++used;
        return e;
    }
}

void
CoherenceDirectory::erase(Entry *e)
{
    // Backward-shift deletion: walk the probe run after the hole and
    // pull back every entry whose home slot does not lie strictly
    // between the hole and its current slot (cyclically), so every
    // remaining key stays reachable from its home without tombstones.
    size_t hole = static_cast<size_t>(e - slots.data());
    for (size_t j = (hole + 1) & mask; slots[j].addr != emptyKey;
         j = (j + 1) & mask) {
        const size_t h = home(slots[j].addr);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            slots[hole] = slots[j];
            hole = j;
        }
    }
    slots[hole].addr = emptyKey;
    --used;
}

void
CoherenceDirectory::clear()
{
    for (Entry &e : slots)
        e.addr = emptyKey;
    used = 0;
}

void
CoherenceDirectory::grow()
{
    std::vector<Entry> old(slots.size() * 2, Entry{emptyKey, 0, -1});
    old.swap(slots);
    mask = slots.size() - 1;
    --shift;
    for (const Entry &e : old) {
        if (e.addr == emptyKey)
            continue;
        size_t i = home(e.addr);
        while (slots[i].addr != emptyKey)
            i = (i + 1) & mask;
        slots[i] = e;
    }
}

// ---------------------------------------------------------------------
// MemorySystem
// ---------------------------------------------------------------------

MemorySystem::MemorySystem(const HierarchyConfig &config,
                           LastLevelCache &llc, MainMemory & /*memory*/,
                           StatRegistry *stat_registry,
                           const std::string &stat_group)
    : cfg(config), llcRef(llc),
      ownedStats(stat_registry ? nullptr
                               : std::make_unique<StatRegistry>()),
      ctr((stat_registry ? *stat_registry : *ownedStats).group(stat_group))
{
    if (cfg.numCores == 0 || cfg.numCores > 8)
        fatal("unsupported core count %u", cfg.numCores);
    StatGroup group =
        (stat_registry ? *stat_registry : *ownedStats).group(stat_group);
    group.counterFn(
        "l1.accesses", [this] { return l1Accesses(); },
        "total L1 accesses across cores");
    group.counterFn(
        "l2.accesses", [this] { return l2Accesses(); },
        "total L2 accesses across cores");
    l1.reserve(cfg.numCores);
    l2.reserve(cfg.numCores);
    for (u32 c = 0; c < cfg.numCores; ++c) {
        l1.emplace_back(cfg.l1Bytes, cfg.l1Ways);
        l2.emplace_back(cfg.l2Bytes, cfg.l2Ways);
    }
    llcRef.setBackInvalidate(
        [this](Addr addr, u8 *data) { return backInvalidate(addr, data); });
}

bool
MemorySystem::invalidateOthers(DirEntry &de, CoreId except, u8 *merged)
{
    bool dirty = false;
    for (u32 c = 0; c < cfg.numCores; ++c) {
        if (c == except || !(de.sharers & coreBit(c)))
            continue;
        PrivateCache &c1 = l1[c];
        PrivateCache &c2 = l2[c];
        const Slot s1 = c1.find(de.addr);
        const Slot s2 = c2.find(de.addr);
        // L1 data supersedes L2 data within a core.
        if (s1 >= 0 && c1.dirty(s1)) {
            std::memcpy(merged, c1.data(s1), blockBytes);
            dirty = true;
        } else if (s2 >= 0 && c2.dirty(s2)) {
            std::memcpy(merged, c2.data(s2), blockBytes);
            dirty = true;
        }
        if (s1 >= 0)
            c1.invalidateSlot(s1);
        if (s2 >= 0)
            c2.invalidateSlot(s2);
        de.sharers &= static_cast<u8>(~coreBit(c));
        if (de.owner == static_cast<int>(c))
            de.owner = -1;
        ++ctr.invalidationsSent;
    }
    return dirty;
}

bool
MemorySystem::backInvalidate(Addr addr, u8 *data)
{
    // The directory names every core that can hold a copy: sharers are
    // exactly the cores whose L2 holds the block, and L1 ⊆ L2
    // (checkInvariants). A block without an entry is in no private
    // cache, so only the sharers are probed, in ascending core order.
    DirEntry *de = directory.find(addr);
    if (!de)
        return false;
    bool dirty = false;
    for (u32 c = 0; c < cfg.numCores; ++c) {
        if (!(de->sharers & coreBit(c)))
            continue;
        PrivateCache &c1 = l1[c];
        PrivateCache &c2 = l2[c];
        const Slot s1 = c1.find(addr);
        const Slot s2 = c2.find(addr);
        if (s1 >= 0 && c1.dirty(s1)) {
            std::memcpy(data, c1.data(s1), blockBytes);
            dirty = true;
        } else if (s2 >= 0 && c2.dirty(s2)) {
            std::memcpy(data, c2.data(s2), blockBytes);
            dirty = true;
        }
        if (s1 >= 0) {
            c1.invalidateSlot(s1);
            ++ctr.invalidationsSent;
        }
        if (s2 >= 0) {
            c2.invalidateSlot(s2);
            ++ctr.invalidationsSent;
        }
    }
    directory.erase(de);
    return dirty;
}

void
MemorySystem::evictFromL2(CoreId core, Addr addr, Slot l2_slot)
{
    // Maintain L2 ⊇ L1: the L1 copy must go too; its data is newest.
    // Invalidation leaves a slot's bytes in place and nothing below
    // refills these slots, so the pointer stays good across the LLC
    // writeback.
    PrivateCache &c1 = l1[core];
    PrivateCache &c2 = l2[core];
    const u8 *newest = c2.data(l2_slot);
    bool dirty = c2.dirty(l2_slot);
    const Slot s1 = c1.find(addr);
    if (s1 >= 0) {
        if (c1.dirty(s1)) {
            newest = c1.data(s1);
            dirty = true;
        }
        c1.invalidateSlot(s1);
    }
    if (dirty)
        llcRef.writeback(addr, newest);

    // Re-take the entry: the writeback may have erased or moved it.
    if (DirEntry *de = directory.find(addr)) {
        de->sharers &= static_cast<u8>(~coreBit(core));
        if (de->owner == static_cast<int>(core))
            de->owner = -1;
        if (de->sharers == 0 && de->owner < 0)
            directory.erase(de);
    }
}

void
MemorySystem::evictFromL1(CoreId core, Addr addr, Slot l1_slot)
{
    PrivateCache &c1 = l1[core];
    if (!c1.dirty(l1_slot))
        return;
    PrivateCache &c2 = l2[core];
    const Slot parent = c2.find(addr);
    if (parent >= 0) {
        std::memcpy(c2.data(parent), c1.data(l1_slot), blockBytes);
        c2.setDirty(parent, true);
    } else {
        // Inclusion violated only via races we don't model; be safe
        // and push straight to the LLC.
        llcRef.writeback(addr, c1.data(l1_slot));
    }
}

MemorySystem::Slot
MemorySystem::fillL1(CoreId core, Addr addr, const u8 *bytes)
{
    PrivateCache &c1 = l1[core];
    const Slot s = c1.allocate(addr, [this, core](Addr victim, Slot v) {
        evictFromL1(core, victim, v);
    });
    std::memcpy(c1.data(s), bytes, blockBytes);
    return s;
}

MemorySystem::Slot
MemorySystem::fillPrivate(CoreId core, Addr addr, const u8 *bytes)
{
    PrivateCache &c2 = l2[core];
    const Slot s2 = c2.allocate(addr, [this, core](Addr victim, Slot v) {
        evictFromL2(core, victim, v);
    });
    std::memcpy(c2.data(s2), bytes, blockBytes);
    return fillL1(core, addr, bytes);
}

Tick
MemorySystem::fetchIntoPrivate(CoreId core, Addr addr, bool for_write,
                               Slot &l1_slot)
{
    Tick lat = 0;

    // Resolve a remote modified copy first (Sec 3.6): write it back to
    // the LLC, which for Doppelgänger re-runs map generation.
    const DirEntry *remote = directory.find(addr);
    if (remote && remote->owner >= 0 &&
        remote->owner != static_cast<int>(core)) {
        const CoreId owner = static_cast<CoreId>(remote->owner);
        ++ctr.remoteFetches;
        lat += cfg.remotePenalty;

        PrivateCache &o1 = l1[owner];
        PrivateCache &o2 = l2[owner];
        const Slot s1 = o1.find(addr);
        const Slot s2 = o2.find(addr);
        if (s1 >= 0 || s2 >= 0) {
            llcRef.writeback(addr, s1 >= 0 ? o1.data(s1) : o2.data(s2));
            // Downgrading to clean: the owner's L2 copy must match its
            // L1 copy, or a later silent L1 eviction would leave the
            // stale L2 line answering hits.
            if (s1 >= 0 && s2 >= 0)
                std::memcpy(o2.data(s2), o1.data(s1), blockBytes);
            if (s1 >= 0) {
                o1.setDirty(s1, false);
                o1.setOwned(s1, false);
            }
            if (s2 >= 0)
                o2.setDirty(s2, false);
        }
        // Re-take the entry: the writeback may have erased or moved it.
        if (DirEntry *de = directory.find(addr))
            de->owner = -1;
    }

    BlockData buf;
    const auto result = llcRef.fetch(addr, buf.data());
    lat += result.latency;

    // Taken only after the fetch, whose back-invalidations may erase
    // or move directory entries.
    DirEntry &de = directory.findOrInsert(addr);
    if (for_write) {
        BlockData merged;
        if (invalidateOthers(de, core, merged.data()))
            buf = merged;
        de.owner = static_cast<i8>(core);
    }
    de.sharers |= coreBit(core);

    l1_slot = fillPrivate(core, addr, buf.data());
    return lat;
}

Tick
MemorySystem::acquireOwnership(CoreId core, Addr baddr, Slot l1_slot)
{
    Tick lat = 0;
    DirEntry &de = directory.findOrInsert(baddr);
    de.sharers |= coreBit(core);
    if (de.owner != static_cast<int>(core)) {
        // Upgrade: obtain ownership via the directory. invalidateOthers
        // makes no LLC call and never erases, so @p de stays valid.
        ++ctr.upgrades;
        lat += cfg.remotePenalty;
        BlockData merged;
        if (invalidateOthers(de, core, merged.data()))
            std::memcpy(l1[core].data(l1_slot), merged.data(), blockBytes);
        de.owner = static_cast<i8>(core);
    }
    l1[core].setOwned(l1_slot, true);
    return lat;
}

Tick
MemorySystem::accessSlow(CoreId core, Addr baddr, unsigned off,
                         bool is_write, unsigned size, void *data,
                         Slot l1_slot)
{
    Tick lat = cfg.l1Latency;
    PrivateCache &c1 = l1[core];
    Slot s = l1_slot;
    if (s < 0) {
        ++ctr.l1Misses;
        lat += cfg.l2Latency;
        PrivateCache &c2 = l2[core];

        const Slot s2 = c2.lookup(baddr);
        if (s2 >= 0) {
            ++ctr.l2Hits;
            s = fillL1(core, baddr, c2.data(s2));
        } else {
            ++ctr.l2Misses;
            lat += fetchIntoPrivate(core, baddr, is_write, s);
        }
    }

    if (is_write) {
        if (!c1.owned(s))
            lat += acquireOwnership(core, baddr, s);
        std::memcpy(c1.data(s) + off, data, size);
        c1.setDirty(s, true);
    } else {
        std::memcpy(data, c1.data(s) + off, size);
    }
    return lat;
}

void
MemorySystem::drain()
{
    for (u32 c = 0; c < cfg.numCores; ++c) {
        PrivateCache &c1 = l1[c];
        PrivateCache &c2 = l2[c];
        // Fold dirty L1 lines into L2 (or straight to the LLC).
        c1.forEachLine([&](Addr addr, Slot s) {
            if (!c1.dirty(s))
                return;
            const Slot parent = c2.find(addr);
            if (parent >= 0) {
                std::memcpy(c2.data(parent), c1.data(s), blockBytes);
                c2.setDirty(parent, true);
            } else {
                llcRef.writeback(addr, c1.data(s));
            }
        });
        c1.invalidateAll();

        c2.forEachLine([&](Addr addr, Slot s) {
            if (c2.dirty(s))
                llcRef.writeback(addr, c2.data(s));
        });
        c2.invalidateAll();
    }
    directory.clear();
    llcRef.flush();
}

bool
MemorySystem::checkInvariants(std::string *why) const
{
    char msg[160];
    auto fail = [&](const char *what, Addr addr, u32 core) {
        std::snprintf(msg, sizeof(msg), "%s: block 0x%llx, core %u", what,
                      static_cast<unsigned long long>(addr), core);
        if (why)
            *why = msg;
        return false;
    };
    const u32 cores = cfg.numCores;

    // Directory side: single writer, and sharers == the L2s holding it.
    bool ok = true;
    directory.forEach([&](const DirEntry &de) {
        if (!ok)
            return;
        if (de.sharers == 0 && de.owner < 0) {
            ok = fail("empty directory entry", de.addr, 0);
            return;
        }
        if (de.owner >= static_cast<int>(cores) ||
            (de.sharers >> cores) != 0) {
            ok = fail("directory names a nonexistent core", de.addr, 0);
            return;
        }
        if (de.owner >= 0 &&
            de.sharers != coreBit(static_cast<CoreId>(de.owner))) {
            ok = fail("owned block has other sharers", de.addr,
                      static_cast<u32>(de.owner));
            return;
        }
        for (u32 c = 0; c < cores && ok; ++c) {
            const bool holds = l2[c].find(de.addr) >= 0;
            if (holds != static_cast<bool>(de.sharers & coreBit(c)))
                ok = fail(holds ? "L2 holder missing from sharers"
                                : "sharer does not hold the block",
                          de.addr, c);
        }
    });
    if (!ok)
        return false;

    // Cache side: inclusion, dirty => owner, owned bit => owner.
    for (u32 c = 0; c < cores && ok; ++c) {
        auto isOwner = [&](Addr addr) {
            const DirEntry *de = directory.find(addr);
            return de && de->owner == static_cast<int>(c);
        };
        l1[c].forEachLine([&](Addr addr, Slot s) {
            if (!ok)
                return;
            if (l2[c].find(addr) < 0)
                ok = fail("L1 line missing from L2", addr, c);
            else if (l1[c].dirty(s) && !isOwner(addr))
                ok = fail("dirty L1 line not owned", addr, c);
            else if (l1[c].owned(s) && !isOwner(addr))
                ok = fail("owned bit without directory ownership", addr,
                          c);
        });
        l2[c].forEachLine([&](Addr addr, Slot s) {
            if (!ok)
                return;
            if (!directory.find(addr))
                ok = fail("L2 line has no directory entry", addr, c);
            else if (!llcRef.contains(addr))
                ok = fail("L2 line missing from the inclusive LLC", addr,
                          c);
            else if (l2[c].dirty(s) && !isOwner(addr))
                ok = fail("dirty L2 line not owned", addr, c);
        });
    }
    return ok;
}

} // namespace dopp
