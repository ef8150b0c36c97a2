/**
 * @file
 * Private per-core writeback cache, used for both L1 and L2 (Table 1:
 * 16 KB 4-way L1, 128 KB 8-way L2). Coherence state (MSI) is tracked by
 * the hierarchy's directory; lines here carry valid/dirty/owned flags
 * and their data.
 *
 * Layout (DESIGN.md §18): the lookup keys (block addresses) and flag
 * bytes live in a SetAssocDir, the 64-byte blocks in a separate arena
 * indexed by the same flattened `set * ways + way` slot. A probe reads
 * only the set's key run and flag bytes; the data is touched only on a
 * hit. The hierarchy differential suite (tests/test_hierarchy_diff.cc)
 * holds it bit-identical to the frozen test reference hierarchy.
 */

#ifndef DOPP_SIM_PRIVATE_CACHE_HH
#define DOPP_SIM_PRIVATE_CACHE_HH

#include <vector>

#include "sim/memory.hh"
#include "sim/set_assoc.hh"
#include "util/types.hh"

namespace dopp
{

/** A private writeback, write-allocate cache level. */
class PrivateCache
{
  public:
    /** Flattened line index; negative means "not resident". */
    using Slot = i32;
    static constexpr Slot noSlot = -1;

    /** Line holds data newer than the level below. */
    static constexpr u8 kDirty = 1 << 1;
    /** L1 only: the directory names this core the block's owner, so a
     * store hit needs no directory transaction. */
    static constexpr u8 kOwned = 1 << 2;

    PrivateCache(u64 size_bytes, u32 num_ways,
                 ReplPolicy policy = ReplPolicy::LRU)
        : dir(static_cast<u32>(size_bytes / blockBytes / num_ways),
              num_ways, policy),
          slicer(static_cast<u32>(size_bytes / blockBytes / num_ways)),
          blocks(static_cast<size_t>(dir.sets()) * dir.ways())
    {
    }

    /** @return the resident line for @p addr, or noSlot. No touch. */
    Slot
    find(Addr addr) const
    {
        const u32 set = slicer.set(addr);
        const int way = dir.findWay(set, addr);
        return way < 0 ? noSlot : slotOf(set, static_cast<u32>(way));
    }

    /** find() that also marks a hit recently used: one probe per
     * access on the hit path. */
    Slot
    lookup(Addr addr)
    {
        const u32 set = slicer.set(addr);
        const int way = dir.findWay(set, addr);
        if (way < 0)
            return noSlot;
        dir.touch(set, static_cast<u32>(way));
        return slotOf(set, static_cast<u32>(way));
    }

    /** lookup() for @p uses back-to-back accesses to @p addr: one
     * probe, and on a hit the LRU stamp @p uses touches leave. */
    Slot
    lookup(Addr addr, u64 uses)
    {
        const u32 set = slicer.set(addr);
        const int way = dir.findWay(set, addr);
        if (way < 0)
            return noSlot;
        dir.touch(set, static_cast<u32>(way), uses);
        return slotOf(set, static_cast<u32>(way));
    }

    /**
     * Allocate a line for @p addr, evicting a victim if needed. If a
     * valid victim is displaced, @p on_evict(victim_addr, slot) runs
     * *before* the new line is installed, while the slot still holds
     * the victim's flags and data.
     * @return the installed line: valid, clean, not owned. Its data is
     * stale; the caller overwrites all of it.
     */
    template <typename OnEvict>
    Slot
    allocate(Addr addr, OnEvict &&on_evict)
    {
        const u32 set = slicer.set(addr);
        const u32 way = dir.victimWay(set);
        const Slot s = slotOf(set, way);
        if (dir.valid(s))
            on_evict(static_cast<Addr>(dir.key(s)), s);
        dir.setValid(s, true);
        dir.setKey(s, addr);
        dir.setFlag(s, kDirty | kOwned, false);
        dir.touchInsert(set, way);
        return s;
    }

    /** Drop @p addr if resident. @return whether a line was dropped. */
    bool
    invalidate(Addr addr)
    {
        const Slot s = find(addr);
        if (s < 0)
            return false;
        dir.setValid(s, false);
        return true;
    }

    /** Drop the line in @p s (flags are cleared by the next allocate). */
    void invalidateSlot(Slot s) { dir.setValid(s, false); }

    bool valid(Slot s) const { return dir.valid(s); }
    Addr addrOf(Slot s) const { return static_cast<Addr>(dir.key(s)); }

    u8 *data(Slot s) { return blocks[static_cast<size_t>(s)].bytes; }
    const u8 *
    data(Slot s) const
    {
        return blocks[static_cast<size_t>(s)].bytes;
    }

    bool dirty(Slot s) const { return dir.flag(s, kDirty); }
    void setDirty(Slot s, bool on) { dir.setFlag(s, kDirty, on); }
    bool owned(Slot s) const { return dir.flag(s, kOwned); }
    void setOwned(Slot s, bool on) { dir.setFlag(s, kOwned, on); }

    /**
     * Visit every valid line as (block address, slot), in set-major
     * order. Validity is re-read at each slot, so a line the visitor
     * (or a back-invalidation it triggers) drops is skipped.
     */
    template <typename Visit>
    void
    forEachLine(Visit &&visit) const
    {
        const Slot n = static_cast<Slot>(blocks.size());
        for (Slot s = 0; s < n; ++s) {
            if (dir.valid(s))
                visit(addrOf(s), s);
        }
    }

    /** Invalidate everything without writebacks. */
    void invalidateAll() { dir.invalidateAll(); }

    u32 sets() const { return dir.sets(); }
    u32 ways() const { return dir.ways(); }

  private:
    /** One cache-line-aligned data block. */
    struct alignas(64) Block
    {
        u8 bytes[blockBytes];
    };

    Slot
    slotOf(u32 set, u32 way) const
    {
        return static_cast<Slot>(set * dir.ways() + way);
    }

    SetAssocDir dir; ///< keys are block addresses
    AddrSlicer slicer;
    std::vector<Block> blocks;
};

} // namespace dopp

#endif // DOPP_SIM_PRIVATE_CACHE_HH
