/**
 * @file
 * Four-core memory hierarchy with MSI directory coherence.
 *
 * Models the system of Table 1: per-core private L1 (16 KB, 4-way,
 * 1-cycle) and L2 (128 KB, 8-way, 3-cycle), a shared inclusive LLC
 * behind them, and main memory (160-cycle). The LLC organization is
 * pluggable (conventional / split Doppelgänger / uniDoppelgänger /
 * dedup). The hierarchy is both *functional* — every line carries its
 * 64 bytes, so approximation applied at the LLC propagates to what the
 * cores read — and *timing*: access() returns the cycles the requesting
 * core stalls.
 *
 * Coherence follows the paper's Sec 3.6: a directory at the LLC tracks
 * sharers per block (full-map vector); requests for a block modified in
 * a remote private cache first write that copy back to the LLC (which,
 * for Doppelgänger, re-runs map generation per Sec 3.4).
 *
 * The data-structure layout of this hot path (SoA private caches, a
 * flat open-addressing directory, the L1 "owned" bit) is described in
 * DESIGN.md §18.
 */

#ifndef DOPP_SIM_HIERARCHY_HH
#define DOPP_SIM_HIERARCHY_HH

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "sim/llc.hh"
#include "sim/memory.hh"
#include "sim/private_cache.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace dopp
{

/** Timing and geometry of the private levels (defaults = Table 1). */
struct HierarchyConfig
{
    u32 numCores = 4;

    u64 l1Bytes = 16 * 1024;
    u32 l1Ways = 4;
    Tick l1Latency = 1;

    u64 l2Bytes = 128 * 1024;
    u32 l2Ways = 8;
    Tick l2Latency = 3;

    /** Extra cycles when a request must first retrieve a block that is
     * modified in another core's private cache. */
    Tick remotePenalty = 6;
};

/** Registry-backed hierarchy counters (one instance per run). */
struct HierCounters
{
    explicit HierCounters(StatGroup group);

    Counter &accesses;
    Counter &loads;
    Counter &stores;
    Counter &l1Hits;
    Counter &l1Misses;
    Counter &l2Hits;
    Counter &l2Misses;
    Counter &upgrades;
    Counter &remoteFetches;
    Counter &invalidationsSent;
};

/**
 * The MSI directory: block address -> (sharer bit vector, owner), in a
 * flat open-addressing table with linear probing and backward-shift
 * deletion (no tombstones, so probe runs stay short under the constant
 * insert/erase churn of private-cache fills and evictions).
 *
 * Erasing shifts later entries of the same probe run back by one slot,
 * and inserting may grow the table, so an Entry pointer is valid only
 * until the next insert or erase — in particular not across any LLC
 * call, whose back-invalidations erase entries.
 */
class CoherenceDirectory
{
  public:
    struct Entry
    {
        Addr addr;       ///< block address; emptyKey marks a free slot
        u8 sharers;      ///< bit per core
        i8 owner;        ///< core with M, or -1
    };

    CoherenceDirectory();

    /** @return the entry for @p addr, or nullptr. */
    Entry *
    find(Addr addr)
    {
        for (size_t i = home(addr);; i = (i + 1) & mask) {
            Entry &e = slots[i];
            if (e.addr == addr)
                return &e;
            if (e.addr == emptyKey)
                return nullptr;
        }
    }

    const Entry *
    find(Addr addr) const
    {
        return const_cast<CoherenceDirectory *>(this)->find(addr);
    }

    /** @return the entry for @p addr, inserting an empty one (no
     * sharers, no owner) if absent. */
    Entry &findOrInsert(Addr addr);

    /** Erase @p e (from find/findOrInsert); invalidates Entry pointers. */
    void erase(Entry *e);

    /** Erase @p addr's entry if present. */
    void
    erase(Addr addr)
    {
        if (Entry *e = find(addr))
            erase(e);
    }

    /** Erase every entry (capacity is kept). */
    void clear();

    /** Visit every live entry (no mutation during the walk). */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (const Entry &e : slots) {
            if (e.addr != emptyKey)
                visit(e);
        }
    }

  private:
    /** Never a block address (block addresses have clear low bits). */
    static constexpr Addr emptyKey = ~static_cast<Addr>(0);

    size_t
    home(Addr addr) const
    {
        return static_cast<size_t>(
            ((addr >> blockOffsetBits) * 0x9E3779B97F4A7C15ULL) >> shift);
    }

    void grow();

    std::vector<Entry> slots;
    size_t mask = 0;
    unsigned shift = 0;
    size_t used = 0;
};

/**
 * The memory system: cores call access(); the harness wires an LLC and
 * a MainMemory in.
 */
class MemorySystem
{
  public:
    /**
     * @param config private-level geometry and latencies
     * @param llc the shared LLC organization (not owned)
     * @param memory backing store behind @p llc; the hierarchy reaches
     *        it only through the LLC
     * @param stat_registry per-run registry the hierarchy registers
     *        its counters into; nullptr keeps a private registry
     * @param stat_group dotted group path for hierarchy counters
     */
    MemorySystem(const HierarchyConfig &config, LastLevelCache &llc,
                 MainMemory &memory,
                 StatRegistry *stat_registry = nullptr,
                 const std::string &stat_group = "hierarchy");

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * Perform one load or store of @p size bytes at @p addr for
     * @p core. For loads, @p data receives the bytes the core observes
     * (possibly a doppelgänger approximation); for stores, @p data
     * supplies the bytes written.
     *
     * Inline fast path: an L1 load hit, or a store hit on a line this
     * core already owns, is one L1 probe and a copy; everything else
     * goes through accessSlow().
     *
     * @pre the access does not straddle a 64 B block boundary.
     * @return the number of cycles the core stalls for this access.
     */
    Tick
    access(CoreId core, Addr addr, bool is_write, unsigned size,
           void *data)
    {
        DOPP_ASSERT(core < cfg.numCores);
        DOPP_ASSERT(size > 0 && size <= blockBytes);
        DOPP_ASSERT(blockAlign(addr) == blockAlign(addr + size - 1));

        ++ctr.accesses;
        ++(is_write ? ctr.stores : ctr.loads);

        const Addr baddr = blockAlign(addr);
        const unsigned off = blockOffset(addr);
        PrivateCache &c1 = l1[core];
        const PrivateCache::Slot s = c1.lookup(baddr);
        if (s >= 0) {
            ++ctr.l1Hits;
            if (!is_write) {
                std::memcpy(data, c1.data(s) + off, size);
                return cfg.l1Latency;
            }
            if (c1.owned(s)) {
                std::memcpy(c1.data(s) + off, data, size);
                c1.setDirty(s, true);
                return cfg.l1Latency;
            }
        }
        return accessSlow(core, baddr, off, is_write, size, data, s);
    }

    /**
     * Perform @p count back-to-back accesses of @p size bytes each, at
     * @p addr, @p addr + size, ..., all in one block, all loads or all
     * stores; @p data holds their @p count * @p size bytes in order.
     *
     * The first access is exactly access()'s: its miss, fill or
     * upgrade is unchanged. The other count - 1 are the L1 hits that
     * access() would find, since nothing runs between them: the line
     * is resident (and owned, for stores) once the first completes.
     * So the counters rise as count calls would leave them, the line's
     * LRU stamp is the one count touches leave (one probe for all of
     * them), and the bytes move in one copy (DESIGN.md §18.2).
     *
     * @return the first access's latency; each of the others takes
     * l1Latency().
     */
    Tick
    accessRun(CoreId core, Addr addr, bool is_write, unsigned size,
              unsigned count, void *data)
    {
        DOPP_ASSERT(core < cfg.numCores);
        DOPP_ASSERT(size > 0 && count > 0);
        DOPP_ASSERT(blockAlign(addr) ==
                    blockAlign(addr + size * count - 1));

        ctr.accesses += count;
        (is_write ? ctr.stores : ctr.loads) += count;

        const Addr baddr = blockAlign(addr);
        const unsigned off = blockOffset(addr);
        u8 *bytes = static_cast<u8 *>(data);
        PrivateCache &c1 = l1[core];
        // An L1 hit takes all count touches here: an upgrade below
        // touches no line of this core's L1.
        Slot s = c1.lookup(baddr, count);
        if (s >= 0) {
            ctr.l1Hits += count;
            if (!is_write) {
                std::memcpy(bytes, c1.data(s) + off, size * count);
                return cfg.l1Latency;
            }
            if (c1.owned(s)) {
                std::memcpy(c1.data(s) + off, bytes, size * count);
                c1.setDirty(s, true);
                return cfg.l1Latency;
            }
        } else {
            ctr.l1Hits += count - 1;
        }
        const Tick lat =
            accessSlow(core, baddr, off, is_write, size, bytes, s);
        if (count > 1) {
            // A miss filled the line with one insert stamp; the hits
            // after it touch it count - 1 times.
            if (s < 0)
                s = c1.lookup(baddr, count - 1);
            DOPP_ASSERT(s >= 0 && (!is_write || c1.owned(s)));
            const unsigned rest = size * (count - 1);
            if (is_write)
                std::memcpy(c1.data(s) + off + size, bytes + size, rest);
            else
                std::memcpy(bytes + size, c1.data(s) + off + size, rest);
        }
        return lat;
    }

    /** Latency of an L1 hit, the cost of every access of a run but
     * the first (accessRun). */
    Tick l1Latency() const { return cfg.l1Latency; }

    /**
     * Write back every dirty private and LLC block to memory and
     * invalidate all levels. Used before reading workload outputs and
     * between experiment phases. Doppelgänger writeback semantics apply
     * (dirty tags write their *shared* data entry back).
     */
    void drain();

    /**
     * Check the coherence and inclusion invariants: at most one owner
     * per block, and an owner is the block's only sharer; directory
     * sharers are exactly the cores whose L2 holds the block; a dirty
     * private line belongs to the directory owner; an L1 owned bit
     * implies that core is the owner; L1 ⊆ L2 per core and every L2
     * block is in the LLC (LastLevelCache::contains). O(private lines).
     * @param why receives the first violation, when non-null.
     * @return whether every invariant holds.
     */
    bool checkInvariants(std::string *why = nullptr) const;

    /** Private cache access counts summed over cores, for hierarchy
     * energy: every access probes an L1, every L1 miss an L2. */
    u64 l1Accesses() const { return ctr.accesses.value(); }
    u64 l2Accesses() const { return ctr.l1Misses.value(); }

    /** Underlying LLC, e.g. for snapshots. */
    LastLevelCache &llc() { return llcRef; }

    u32 numCores() const { return cfg.numCores; }

  private:
    using Slot = PrivateCache::Slot;
    using DirEntry = CoherenceDirectory::Entry;

    /** Everything but the inline fast path: L1 miss (L2 hit or LLC
     * fetch) and the store ownership check. @p l1_slot is the L1 probe
     * result (noSlot on a miss). */
    Tick accessSlow(CoreId core, Addr baddr, unsigned off, bool is_write,
                    unsigned size, void *data, Slot l1_slot);

    /** Store slow path: make @p core the directory owner of @p baddr
     * (an upgrade when it is not yet), then set the L1 owned bit.
     * @return the extra latency. */
    Tick acquireOwnership(CoreId core, Addr baddr, Slot l1_slot);

    /** Invalidate the private copies of @p de's block in every sharer
     * but @p except, clearing their sharer bits and ownership; dirty
     * data (if any) is merged into @p merged. Does not erase @p de.
     * @return whether a dirty copy was merged. */
    bool invalidateOthers(DirEntry &de, CoreId except, u8 *merged);

    /** The LLC's inclusive back-invalidation hook: invalidates the
     * copies in the directory's sharers only, then erases the entry. */
    bool backInvalidate(Addr addr, u8 *data);

    /** L2 victim handler: maintains L2⊇L1 inclusion and writebacks. */
    void evictFromL2(CoreId core, Addr addr, Slot l2_slot);

    /** L1 victim handler: folds dirty data into the L2 copy. */
    void evictFromL1(CoreId core, Addr addr, Slot l1_slot);

    /** Install @p addr with @p bytes in core @p core's L1; the L2 already
     * holds it. @return the L1 slot. */
    Slot fillL1(CoreId core, Addr addr, const u8 *bytes);

    /** Install @p addr with @p bytes in core @p core's L2 and L1 (L2
     * first, so inclusion holds when L1 is filled). @return the L1
     * slot. */
    Slot fillPrivate(CoreId core, Addr addr, const u8 *bytes);

    /** Fetch @p addr into core's hierarchy from LLC, resolving any
     * remote M copy. @p l1_slot receives the filled L1 line.
     * @return extra latency. */
    Tick fetchIntoPrivate(CoreId core, Addr addr, bool for_write,
                          Slot &l1_slot);

    static u8 coreBit(CoreId core) { return static_cast<u8>(1u << core); }

    HierarchyConfig cfg;
    LastLevelCache &llcRef;
    std::vector<PrivateCache> l1;
    std::vector<PrivateCache> l2;
    CoherenceDirectory directory;
    std::unique_ptr<StatRegistry> ownedStats; ///< when none is passed
    HierCounters ctr;
};

} // namespace dopp

#endif // DOPP_SIM_HIERARCHY_HH
