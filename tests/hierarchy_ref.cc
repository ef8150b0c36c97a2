#include "hierarchy_ref.hh"

#include <cstring>

#include "util/logging.hh"

namespace dopp
{

RefMemorySystem::RefMemorySystem(const HierarchyConfig &config,
                                 LastLevelCache &llc,
                                 StatRegistry &stat_registry,
                                 const std::string &stat_group)
    : cfg(config), llcRef(llc)
{
    if (cfg.numCores == 0 || cfg.numCores > 8)
        fatal("unsupported core count %u", cfg.numCores);
    StatGroup group = stat_registry.group(stat_group);
    ctr = std::make_unique<HierCounters>(group);
    group.counterFn(
        "l1.accesses", [this] { return l1Accesses(); },
        "total L1 accesses across cores");
    group.counterFn(
        "l2.accesses", [this] { return l2Accesses(); },
        "total L2 accesses across cores");
    for (u32 c = 0; c < cfg.numCores; ++c) {
        l1.push_back(std::make_unique<RefPrivateCache>(cfg.l1Bytes,
                                                       cfg.l1Ways));
        l2.push_back(std::make_unique<RefPrivateCache>(cfg.l2Bytes,
                                                       cfg.l2Ways));
    }
    llcRef.setBackInvalidate(
        [this](Addr addr, u8 *data) { return backInvalidate(addr, data); });
}

void
RefMemorySystem::dirMaybeErase(Addr addr)
{
    auto it = directory.find(addr);
    if (it != directory.end() && it->second.sharers == 0 &&
        it->second.owner < 0) {
        directory.erase(it);
    }
}

bool
RefMemorySystem::invalidateOthers(Addr addr, int except, u8 *merged)
{
    auto it = directory.find(addr);
    if (it == directory.end())
        return false;
    DirEntry &de = it->second;

    bool dirty = false;
    for (u32 c = 0; c < cfg.numCores; ++c) {
        if (static_cast<int>(c) == except || !(de.sharers & (1u << c)))
            continue;
        Line *l1line = l1[c]->find(addr);
        Line *l2line = l2[c]->find(addr);
        // L1 data supersedes L2 data within a core.
        if (l1line && l1line->dirty) {
            std::memcpy(merged, l1line->data.data(), blockBytes);
            dirty = true;
        } else if (l2line && l2line->dirty) {
            std::memcpy(merged, l2line->data.data(), blockBytes);
            dirty = true;
        }
        if (l1line)
            l1line->valid = false;
        if (l2line)
            l2line->valid = false;
        de.sharers &= static_cast<u8>(~(1u << c));
        if (de.owner == static_cast<int>(c))
            de.owner = -1;
        ++ctr->invalidationsSent;
    }
    dirMaybeErase(addr);
    return dirty;
}

bool
RefMemorySystem::backInvalidate(Addr addr, u8 *data)
{
    bool dirty = false;
    for (u32 c = 0; c < cfg.numCores; ++c) {
        Line *l1line = l1[c]->find(addr);
        Line *l2line = l2[c]->find(addr);
        if (l1line && l1line->dirty) {
            std::memcpy(data, l1line->data.data(), blockBytes);
            dirty = true;
        } else if (l2line && l2line->dirty) {
            std::memcpy(data, l2line->data.data(), blockBytes);
            dirty = true;
        }
        if (l1line) {
            l1line->valid = false;
            ++ctr->invalidationsSent;
        }
        if (l2line) {
            l2line->valid = false;
            ++ctr->invalidationsSent;
        }
    }
    directory.erase(addr);
    return dirty;
}

void
RefMemorySystem::evictFromL2(CoreId core, Addr addr, const Line &line)
{
    // Maintain L2 ⊇ L1: the L1 copy must go too; its data is newest.
    BlockData newest = line.data;
    bool dirty = line.dirty;
    Line *l1line = l1[core]->find(addr);
    if (l1line) {
        if (l1line->dirty) {
            newest = l1line->data;
            dirty = true;
        }
        l1line->valid = false;
    }
    if (dirty)
        llcRef.writeback(addr, newest.data());

    auto it = directory.find(addr);
    if (it != directory.end()) {
        it->second.sharers &= static_cast<u8>(~(1u << core));
        if (it->second.owner == static_cast<int>(core))
            it->second.owner = -1;
        dirMaybeErase(addr);
    }
}

RefMemorySystem::Line &
RefMemorySystem::fillPrivate(CoreId core, Addr addr, const u8 *bytes)
{
    // Fill L2 first so inclusion holds when L1 is filled.
    if (!l2[core]->find(addr)) {
        Line &l2line = l2[core]->allocate(
            addr, [this, core](Addr victim, const Line &v) {
                evictFromL2(core, victim, v);
            });
        std::memcpy(l2line.data.data(), bytes, blockBytes);
    }
    Line *l1line = l1[core]->find(addr);
    if (!l1line) {
        l1line = &l1[core]->allocate(
            addr, [this, core](Addr victim, const Line &v) {
                // L1 victim: fold dirty data into the L2 copy (L2 ⊇ L1).
                if (!v.dirty)
                    return;
                Line *parent = l2[core]->find(victim);
                if (parent) {
                    parent->data = v.data;
                    parent->dirty = true;
                } else {
                    llcRef.writeback(victim, v.data.data());
                }
            });
        std::memcpy(l1line->data.data(), bytes, blockBytes);
    }
    return *l1line;
}

Tick
RefMemorySystem::fetchIntoPrivate(CoreId core, Addr addr, bool for_write)
{
    Tick lat = 0;

    // Resolve a remote modified copy first (Sec 3.6).
    auto it = directory.find(addr);
    if (it != directory.end() && it->second.owner >= 0 &&
        it->second.owner != static_cast<int>(core)) {
        const CoreId owner = static_cast<CoreId>(it->second.owner);
        ++ctr->remoteFetches;
        lat += cfg.remotePenalty;

        Line *l1o = l1[owner]->find(addr);
        Line *l2o = l2[owner]->find(addr);
        const Line *newest = l1o ? l1o : l2o;
        if (newest) {
            llcRef.writeback(addr, newest->data.data());
            if (l1o && l2o)
                l2o->data = l1o->data;
            if (l1o)
                l1o->dirty = false;
            if (l2o)
                l2o->dirty = false;
        }
        it->second.owner = -1;
    }

    BlockData buf;
    const auto result = llcRef.fetch(addr, buf.data());
    lat += result.latency;

    // invalidateOthers may erase the directory node, so the entry
    // reference must be (re-)taken only after it runs.
    if (for_write) {
        BlockData merged;
        if (invalidateOthers(addr, static_cast<int>(core), merged.data()))
            buf = merged;
    }
    DirEntry &de = dirEntry(addr);
    if (for_write)
        de.owner = static_cast<int>(core);
    de.sharers |= static_cast<u8>(1u << core);

    fillPrivate(core, addr, buf.data());
    return lat;
}

Tick
RefMemorySystem::access(CoreId core, Addr addr, bool is_write,
                        unsigned size, void *data)
{
    DOPP_ASSERT(core < cfg.numCores);
    DOPP_ASSERT(size > 0 && size <= blockBytes);
    DOPP_ASSERT(blockAlign(addr) == blockAlign(addr + size - 1));

    ++ctr->accesses;
    if (is_write)
        ++ctr->stores;
    else
        ++ctr->loads;

    const Addr baddr = blockAlign(addr);
    const unsigned off = blockOffset(addr);

    Tick lat = cfg.l1Latency;
    ++l1[core]->accesses;

    Line *line = l1[core]->find(baddr);
    if (line) {
        ++ctr->l1Hits;
        l1[core]->touch(baddr);
    } else {
        ++l1[core]->misses;
        ++ctr->l1Misses;
        lat += cfg.l2Latency;
        ++l2[core]->accesses;

        Line *l2line = l2[core]->find(baddr);
        if (l2line) {
            ++ctr->l2Hits;
            l2[core]->touch(baddr);
            line = &fillPrivate(core, baddr, l2line->data.data());
        } else {
            ++l2[core]->misses;
            ++ctr->l2Misses;
            lat += fetchIntoPrivate(core, baddr, is_write);
            line = l1[core]->find(baddr);
            DOPP_ASSERT(line);
        }
    }

    if (is_write) {
        DirEntry &de = dirEntry(baddr);
        de.sharers |= static_cast<u8>(1u << core);
        if (de.owner != static_cast<int>(core)) {
            ++ctr->upgrades;
            lat += cfg.remotePenalty;
            BlockData merged;
            if (invalidateOthers(baddr, static_cast<int>(core),
                                 merged.data())) {
                line->data = merged;
            }
            DirEntry &de2 = dirEntry(baddr);
            de2.owner = static_cast<int>(core);
            de2.sharers |= static_cast<u8>(1u << core);
        }
        std::memcpy(line->data.data() + off, data, size);
        line->dirty = true;
    } else {
        std::memcpy(data, line->data.data() + off, size);
    }
    return lat;
}

void
RefMemorySystem::drain()
{
    for (u32 c = 0; c < cfg.numCores; ++c) {
        l1[c]->forEachLine([&](Addr addr, Line &line) {
            if (!line.dirty)
                return;
            Line *parent = l2[c]->find(addr);
            if (parent) {
                parent->data = line.data;
                parent->dirty = true;
            } else {
                llcRef.writeback(addr, line.data.data());
            }
        });
        l1[c]->invalidateAll();

        l2[c]->forEachLine([&](Addr addr, Line &line) {
            if (line.dirty)
                llcRef.writeback(addr, line.data.data());
        });
        l2[c]->invalidateAll();
    }
    directory.clear();
    llcRef.flush();
}

u64
RefMemorySystem::l1Accesses() const
{
    u64 n = 0;
    for (const auto &cache : l1)
        n += cache->accesses;
    return n;
}

u64
RefMemorySystem::l2Accesses() const
{
    u64 n = 0;
    for (const auto &cache : l2)
        n += cache->accesses;
    return n;
}

} // namespace dopp
