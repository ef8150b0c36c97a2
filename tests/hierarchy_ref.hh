/**
 * @file
 * Frozen reference hierarchy: the MemorySystem and PrivateCache as they
 * were before the hot-path rewrite (DESIGN.md §18) — AoS SetAssocArray
 * lines, a node-based std::unordered_map directory and a std::function
 * eviction callback. Test-only: tests/test_hierarchy_diff.cc drives it
 * and the optimized MemorySystem with identical access streams and
 * requires bit-identical results. Do not optimize this code; its value
 * is that it does not change.
 */

#ifndef DOPP_TESTS_HIERARCHY_REF_HH
#define DOPP_TESTS_HIERARCHY_REF_HH

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "set_assoc_array.hh"
#include "sim/hierarchy.hh"

namespace dopp
{

/** Reference private writeback, write-allocate cache level. */
class RefPrivateCache
{
  public:
    struct Line
    {
        bool valid = false;
        u64 tag = 0;
        bool dirty = false;
        BlockData data = {};
    };

    RefPrivateCache(u64 size_bytes, u32 num_ways,
                    ReplPolicy policy = ReplPolicy::LRU)
        : array(static_cast<u32>(size_bytes / blockBytes / num_ways),
                num_ways, policy),
          slicer(static_cast<u32>(size_bytes / blockBytes / num_ways))
    {
    }

    /** @return the resident line for @p addr, or nullptr. No touch. */
    Line *
    find(Addr addr)
    {
        const int way = array.findWay(slicer.set(addr), slicer.tag(addr));
        if (way < 0)
            return nullptr;
        return &array.at(slicer.set(addr), static_cast<u32>(way));
    }

    /** Mark @p addr recently used. @pre the line is resident. */
    void
    touch(Addr addr)
    {
        const int way = array.findWay(slicer.set(addr), slicer.tag(addr));
        if (way >= 0)
            array.touch(slicer.set(addr), static_cast<u32>(way));
    }

    /**
     * Allocate a line for @p addr, evicting a victim if needed; a valid
     * victim is passed to @p on_evict before the new line is installed.
     * @return the installed (valid, clean, zeroed-data) line.
     */
    Line &
    allocate(Addr addr,
             const std::function<void(Addr, const Line &)> &on_evict)
    {
        const u32 set = slicer.set(addr);
        const u32 victim = array.victimWay(set);
        Line &line = array.at(set, victim);
        if (line.valid && on_evict)
            on_evict(slicer.addr(set, line.tag), line);
        array.setValid(set, victim, true);
        line.tag = slicer.tag(addr);
        line.dirty = false;
        line.data = {};
        array.touchInsert(set, victim);
        return line;
    }

    /** Visit every valid line as (block address, line). */
    void
    forEachLine(const std::function<void(Addr, Line &)> &visit)
    {
        for (u32 s = 0; s < array.sets(); ++s) {
            for (u32 w = 0; w < array.ways(); ++w) {
                Line &line = array.at(s, w);
                if (line.valid)
                    visit(slicer.addr(s, line.tag), line);
            }
        }
    }

    /** Invalidate everything without writebacks. */
    void invalidateAll() { array.invalidateAll(); }

    u64 accesses = 0;
    u64 misses = 0;

  private:
    SetAssocArray<Line> array;
    AddrSlicer slicer;
};

/** Reference four-core hierarchy with an MSI directory. Registers the
 * same counters, under the same names, as MemorySystem. */
class RefMemorySystem
{
  public:
    RefMemorySystem(const HierarchyConfig &config, LastLevelCache &llc,
                    StatRegistry &stat_registry,
                    const std::string &stat_group = "hierarchy");

    RefMemorySystem(const RefMemorySystem &) = delete;
    RefMemorySystem &operator=(const RefMemorySystem &) = delete;

    Tick access(CoreId core, Addr addr, bool is_write, unsigned size,
                void *data);

    void drain();

    u64 l1Accesses() const;
    u64 l2Accesses() const;

  private:
    struct DirEntry
    {
        u8 sharers = 0;  ///< bit per core
        int owner = -1;  ///< core with M, or -1
    };

    using Line = RefPrivateCache::Line;

    bool invalidateOthers(Addr addr, int except, u8 *merged);
    bool backInvalidate(Addr addr, u8 *data);
    void evictFromL2(CoreId core, Addr addr, const Line &line);
    Line &fillPrivate(CoreId core, Addr addr, const u8 *bytes);
    Tick fetchIntoPrivate(CoreId core, Addr addr, bool for_write);

    DirEntry &dirEntry(Addr addr) { return directory[addr]; }
    void dirMaybeErase(Addr addr);

    HierarchyConfig cfg;
    LastLevelCache &llcRef;
    std::vector<std::unique_ptr<RefPrivateCache>> l1;
    std::vector<std::unique_ptr<RefPrivateCache>> l2;
    std::unordered_map<Addr, DirEntry> directory;
    std::unique_ptr<HierCounters> ctr;
};

} // namespace dopp

#endif // DOPP_TESTS_HIERARCHY_REF_HH
