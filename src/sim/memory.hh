/**
 * @file
 * Sparse functional backing store standing in for off-chip memory,
 * optionally partitioned into a tiered precise/approximate/NVM main
 * memory (sim/mem_tier.hh, DESIGN.md §13).
 *
 * Storage is page-granular (DESIGN.md §18): 4 KiB pages of 64 stored
 * blocks are materialized on first touch (zero-filled, as an OS would
 * hand out zeroed pages) in a page arena, found through a flat
 * open-addressing page map that also carries each page's tier route,
 * with a memo of the last page touched in front of it. Demand reads
 * and writebacks are counted so the harness can report off-chip
 * traffic (paper Fig 12); poke/peek provide traffic-free functional
 * access for workload input setup and output collection (the paper's
 * inputs arrive via I/O, not the LLC).
 *
 * Tiered mode (constructed from a non-empty MemTierConfig) adds:
 *  - page-granular routing: annotated approximate regions route
 *    round-robin across the non-precise partitions (routeApprox,
 *    called by SimRuntime::annotate); everything else pins to the
 *    precise partition. One functional store backs all partitions, so
 *    migration re-routes pages without copying data.
 *  - per-partition latencies: readBlock/writeBlock return the access
 *    latency of the partition they hit, which the LLC miss paths
 *    charge instead of a flat constant.
 *  - an NVM-style write buffer per partition: a non-full buffer
 *    absorbs a writeback at the cheap buffered latency; reads drain
 *    one entry each; a full buffer makes the blocked access wait one
 *    full writeLatency drain (counted in wbufStalls).
 *  - deterministic per-partition fault injection on demand reads
 *    (bitErrorRate) and on refresh-epoch boundaries (refreshFaultRate
 *    per elapsed epoch), drawn from the run's seeded FaultInjector and
 *    recorded in its trace with field = partition index. Only
 *    header-inline injector methods are used here, so dopp_sim keeps
 *    its no-link-dependency on dopp_fault.
 *  - cross-tier graceful degradation: migrateApproxToPrecise() pins
 *    every approx-routed page to the precise partition (the
 *    QorGuardrail's MIGRATED tier), restoreApproxRoutes() re-applies
 *    the recorded approximate routes when the error estimate recovers.
 */

#ifndef DOPP_SIM_MEMORY_HH
#define DOPP_SIM_MEMORY_HH

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "fault/fault_injector.hh"
#include "sim/mem_tier.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace dopp
{

/** One cache block worth of raw bytes. */
using BlockData = std::array<u8, blockBytes>;

/** Main-memory model: functional store plus traffic counters, with
 * optional partitioned tiering. */
class MainMemory
{
  public:
    /** Legacy flat memory: one implicit precise partition with a
     * fixed access latency (Table 1: 160 cycles). */
    explicit MainMemory(Tick latency = 160)
    {
        MemPartitionProfile flat;
        flat.name = "flat-dram";
        flat.readLatency = latency;
        flat.writeLatency = latency;
        parts.push_back(PartitionState{flat});
    }

    /** Tiered memory per @p tier; an empty tier degenerates to the
     * legacy flat default above. */
    explicit MainMemory(const MemTierConfig &tier)
        : tiered(tier.enabled())
    {
        if (!tiered) {
            MemPartitionProfile flat;
            flat.name = "flat-dram";
            parts.push_back(PartitionState{flat});
            return;
        }
        parts.reserve(tier.partitions.size());
        for (const MemPartitionProfile &p : tier.partitions)
            parts.push_back(PartitionState{p});
        for (u32 i = 0; i < parts.size(); ++i) {
            if (parts[i].prof.kind == MemPartitionKind::PreciseDram) {
                precisePart = i;
                break;
            }
        }
        for (u32 i = 0; i < parts.size(); ++i) {
            if (parts[i].prof.kind != MemPartitionKind::PreciseDram)
                approxParts.push_back(i);
        }
    }

    /** Number of partitions (1 in legacy mode). */
    u32 partitionCount() const
    {
        return static_cast<u32>(parts.size());
    }

    /** Whether a non-empty MemTierConfig configured this memory. */
    bool isTiered() const { return tiered; }

    /** Partition index addr currently routes to. */
    u32
    partitionOf(Addr addr) const
    {
        if (approxParts.empty())
            return precisePart;
        const PageEntry *e = findPage(pageOf(addr));
        return e ? routeOf(*e) : precisePart;
    }

    /**
     * Route the pages of an annotated approximate region to an
     * approximate partition (regions round-robin across the
     * non-precise partitions in registration order, so the assignment
     * is a pure function of the annotation sequence). No-op when the
     * tier has no approximate partition. Routes apply to future
     * accesses only; the functional store is shared, so no data moves.
     */
    void
    routeApprox(Addr base, u64 size)
    {
        if (approxParts.empty() || size == 0)
            return;
        const u32 part = approxParts[nextApproxRegion++ %
                                     approxParts.size()];
        const Addr firstPage = pageOf(base);
        const Addr lastPage = pageOf(base + size - 1);
        for (Addr p = firstPage; p <= lastPage; ++p)
            pageEntry(p).route = part;
        approxSpans.push_back({firstPage, lastPage, part});
        if (migratedNow) // late annotation while migrated: stay precise
            for (Addr p = firstPage; p <= lastPage; ++p)
                pageEntry(p).route = precisePart;
    }

    /**
     * Graceful degradation, tier 2: pin every approx-routed page to
     * the precise partition (QorGuardrail MIGRATED state). Idempotent;
     * returns the number of pages whose route changed.
     */
    u64
    migrateApproxToPrecise()
    {
        if (migratedNow)
            return 0;
        migratedNow = true;
        ++migrations_;
        u64 moved = 0;
        for (const RouteSpan &s : approxSpans) {
            for (Addr p = s.firstPage; p <= s.lastPage; ++p) {
                PageEntry *e = findPage(p);
                if (e && e->route != noRoute && e->route != precisePart) {
                    e->route = precisePart;
                    ++moved;
                }
            }
        }
        pagesMigrated_ += moved;
        return moved;
    }

    /** Undo migrateApproxToPrecise(): re-apply the recorded
     * approximate routes (hysteresis recovery). Idempotent. */
    void
    restoreApproxRoutes()
    {
        if (!migratedNow)
            return;
        migratedNow = false;
        for (const RouteSpan &s : approxSpans)
            for (Addr p = s.firstPage; p <= s.lastPage; ++p)
                pageEntry(p).route = s.partition;
    }

    /** Whether approx routes are currently pinned precise. */
    bool migrated() const { return migratedNow; }

    /** Route migrations performed (MIGRATED entries). */
    u64 migrations() const { return migrations_; }

    /** Pages re-pinned to the precise partition across migrations. */
    u64 pagesMigrated() const { return pagesMigrated_; }

    /**
     * Attach the run's seeded fault source for per-partition
     * injection (tiered mode; the legacy flat path keeps using
     * faultHook). Must outlive the memory's accesses.
     */
    void setFaultInjector(FaultInjector *fi) { injector = fi; }

    /**
     * Observer run after every injected flip, with the stored block
     * already corrupted: (aligned block address, stored block, flipped
     * bit, partition index). The harness computes the element error
     * (flipping the bit back to recover the pre-fault value) and
     * feeds the QoR guardrail.
     */
    std::function<void(Addr, u8 *, u32, u32)> onBitFlip;

    /**
     * Demand-read block at @p addr into @p data; counts traffic.
     * @return the read latency of the partition hit, including any
     * stall behind a full write buffer.
     */
    Tick
    readBlock(Addr addr, u8 *data)
    {
        ++demandReads;
        const Addr aligned = blockAlign(addr);
        PageEntry &page = pageAt(aligned);
        PartitionState &p = parts[routeOf(page)];
        ++p.reads;
        ++p.accesses;
        StoredBlock &b = blockIn(page, aligned);

        injectReadFaults(p, aligned, b);
        if (faultHook)
            faultHook(aligned, b.bytes.data());

        Tick lat = p.prof.readLatency;
        if (p.prof.writeBufferDepth > 0 && p.wbufOccupancy > 0) {
            if (p.wbufOccupancy >= p.prof.writeBufferDepth) {
                // Full buffer: the read waits for one drain.
                lat += p.prof.writeLatency;
                ++p.wbufStalls;
            }
            --p.wbufOccupancy; // the read slot drains one entry
        }
        p.readCycles += lat;
        std::memcpy(data, b.bytes.data(), blockBytes);
        return lat;
    }

    /**
     * Writeback block at @p addr from @p data; counts traffic.
     * @return the write latency (buffered or full). Writebacks are
     * posted off the critical path, so the LLC does not charge this
     * to runtime; it is visible in writeCycles and the energy model.
     */
    Tick
    writeBlock(Addr addr, const u8 *data)
    {
        ++writebacks;
        const Addr aligned = blockAlign(addr);
        PageEntry &page = pageAt(aligned);
        PartitionState &p = parts[routeOf(page)];
        ++p.writes;
        ++p.accesses;
        StoredBlock &b = blockIn(page, aligned);
        std::memcpy(b.bytes.data(), data, blockBytes);
        b.epoch = currentEpoch(p); // a write rewrites (refreshes) the cells

        Tick lat;
        if (p.prof.writeBufferDepth > 0) {
            if (p.wbufOccupancy < p.prof.writeBufferDepth) {
                ++p.wbufOccupancy;
                ++p.wbufHits;
                lat = p.prof.bufferedWriteLatency;
            } else {
                ++p.wbufStalls; // full: wait one full drain
                lat = p.prof.writeLatency;
            }
        } else {
            lat = p.prof.writeLatency;
        }
        p.writeCycles += lat;
        return lat;
    }

    /** Functional write without traffic accounting (input setup). */
    void
    poke(Addr addr, const void *src, u64 len)
    {
        const u8 *p = static_cast<const u8 *>(src);
        Addr a = addr;
        u64 left = len;
        while (left > 0) {
            const Addr aligned = blockAlign(a);
            StoredBlock &b = blockIn(pageAt(aligned), aligned);
            const unsigned off = blockOffset(a);
            const u64 chunk = std::min<u64>(left, blockBytes - off);
            std::memcpy(b.bytes.data() + off, p, chunk);
            p += chunk;
            a += chunk;
            left -= chunk;
        }
    }

    /** Functional read without traffic accounting (output collection).
     * Never-touched blocks read as zeros and stay unmaterialized. */
    void
    peek(Addr addr, void *dst, u64 len) const
    {
        u8 *p = static_cast<u8 *>(dst);
        Addr a = addr;
        u64 left = len;
        static const BlockData zeros = {};
        while (left > 0) {
            const Addr aligned = blockAlign(a);
            const PageEntry *e = findPage(pageOf(aligned));
            const BlockData &b = e && e->data
                ? e->data->blocks[blockInPage(aligned)].bytes
                : zeros;
            const unsigned off = blockOffset(a);
            const u64 chunk = std::min<u64>(left, blockBytes - off);
            std::memcpy(p, b.data() + off, chunk);
            p += chunk;
            a += chunk;
            left -= chunk;
        }
    }

    /**
     * Optional fault hook, run on every demand read before the data
     * leaves memory. It receives the *stored* block and may corrupt it
     * in place, modeling bit flips that accumulate in approximate DRAM
     * partitions and materialize at the next read. The harness wires
     * this to a FaultInjector, filtered to annotated regions (precise
     * data lives in the reliable partition) — the legacy flat-memory
     * fault path; tiered runs use setFaultInjector instead. Functional
     * peek/poke bypass the hook, so input setup and output collection
     * stay exact.
     */
    std::function<void(Addr, u8 *)> faultHook;

    /** Read latency of the precise (default-route) partition — the
     * legacy flat-latency view. */
    Tick latency() const
    {
        return parts[precisePart].prof.readLatency;
    }

    /** Demand block reads since the last resetStats(). */
    u64 reads() const { return demandReads; }

    /** Block writebacks since the last resetStats(). */
    u64 writes() const { return writebacks; }

    /** Total off-chip block transfers. */
    u64 traffic() const { return demandReads + writebacks; }

    /** Pages materialized so far (4 KiB of stored blocks each). */
    u64 pagesResident() const { return arena.size(); }

    /** Per-partition counters (index < partitionCount()). */
    struct PartitionCounters
    {
        u64 reads = 0;          ///< demand block reads
        u64 writes = 0;         ///< block writebacks
        u64 readCycles = 0;     ///< latency charged to reads
        u64 writeCycles = 0;    ///< latency charged to writes
        u64 bitFlips = 0;       ///< raw read-disturb flips injected
        u64 refreshFaults = 0;  ///< retention flips at epoch boundaries
        u64 wbufHits = 0;       ///< writes absorbed by the buffer
        u64 wbufStalls = 0;     ///< accesses stalled on a full buffer
    };

    PartitionCounters
    partitionCounters(u32 index) const
    {
        const PartitionState &p = parts[index];
        PartitionCounters c;
        c.reads = p.reads;
        c.writes = p.writes;
        c.readCycles = p.readCycles;
        c.writeCycles = p.writeCycles;
        c.bitFlips = p.bitFlips;
        c.refreshFaults = p.refreshFaults;
        c.wbufHits = p.wbufHits;
        c.wbufStalls = p.wbufStalls;
        return c;
    }

    /**
     * Expose the traffic counters under @p group (counter functions
     * over the existing members, so readBlock/writeBlock keep their
     * header-only hot path). Tiered memories additionally register
     * one subgroup per partition ("partition0", "partition1", ...)
     * plus the migration counters; the legacy flat layout is
     * unchanged, so pre-tier snapshots stay bit-identical. The memory
     * must outlive the registry's snapshots.
     */
    void
    registerStats(StatGroup group)
    {
        group.counterFn(
            "reads", [this] { return reads(); },
            "demand block reads from memory");
        group.counterFn(
            "writes", [this] { return writes(); },
            "block writebacks to memory");
        group.counterFn(
            "traffic", [this] { return traffic(); },
            "total off-chip block transfers");
        if (!tiered)
            return;
        group.counterFn(
            "migrations", [this] { return migrations_; },
            "approx-to-precise route migrations");
        group.counterFn(
            "pagesMigrated", [this] { return pagesMigrated_; },
            "pages re-pinned to the precise partition");
        group.counterFn(
            "migratedNow", [this] { return migratedNow ? 1 : 0; },
            "whether approx routes are currently pinned precise");
        for (u32 i = 0; i < parts.size(); ++i) {
            StatGroup pg =
                group.group("partition" + std::to_string(i));
            const std::string what =
                parts[i].prof.name + " (" +
                memPartitionKindName(parts[i].prof.kind) + ")";
            pg.counterFn(
                "reads", [this, i] { return parts[i].reads; },
                "demand block reads: " + what);
            pg.counterFn(
                "writes", [this, i] { return parts[i].writes; },
                "block writebacks: " + what);
            pg.counterFn(
                "readCycles",
                [this, i] { return parts[i].readCycles; },
                "latency charged to reads: " + what);
            pg.counterFn(
                "writeCycles",
                [this, i] { return parts[i].writeCycles; },
                "latency charged to writes: " + what);
            pg.counterFn(
                "bitFlips", [this, i] { return parts[i].bitFlips; },
                "read-disturb bit flips injected: " + what);
            pg.counterFn(
                "refreshFaults",
                [this, i] { return parts[i].refreshFaults; },
                "retention flips at refresh epochs: " + what);
            pg.counterFn(
                "wbufHits", [this, i] { return parts[i].wbufHits; },
                "writes absorbed by the write buffer: " + what);
            pg.counterFn(
                "wbufStalls",
                [this, i] { return parts[i].wbufStalls; },
                "accesses stalled on a full write buffer: " + what);
        }
    }

    /** Zero the traffic counters (not the contents or routes). */
    void
    resetStats()
    {
        demandReads = 0;
        writebacks = 0;
        for (PartitionState &p : parts) {
            const MemPartitionProfile prof = p.prof;
            p = PartitionState{prof};
        }
    }

  private:
    /** Stored block plus the refresh epoch it was last rewritten or
     * read (fault accumulation restarts from there). */
    struct StoredBlock
    {
        BlockData bytes = {};
        u64 epoch = 0;
    };

    struct PartitionState
    {
        MemPartitionProfile prof;
        u64 reads = 0;
        u64 writes = 0;
        u64 readCycles = 0;
        u64 writeCycles = 0;
        u64 bitFlips = 0;
        u64 refreshFaults = 0;
        u64 wbufHits = 0;
        u64 wbufStalls = 0;
        u64 accesses = 0;      ///< drives the refresh-epoch clock
        u32 wbufOccupancy = 0; ///< buffered writes outstanding
    };

    /** 4 KiB pages, matching the runtime's page-aligned allocator. */
    static constexpr unsigned pageBits = 12;
    static constexpr u32 blocksPerPage = 1u << (pageBits - blockOffsetBits);

    /** Page number of @p addr. */
    static Addr pageOf(Addr addr) { return addr >> pageBits; }

    /** Index of block-aligned @p aligned within its page. */
    static u32
    blockInPage(Addr aligned)
    {
        return static_cast<u32>(aligned >> blockOffsetBits) &
            (blocksPerPage - 1);
    }

    /** One arena page: the stored blocks of a 4 KiB page. */
    struct Page
    {
        StoredBlock blocks[blocksPerPage];
    };

    /** Page-map slot: page number, its arena page (nullptr until a
     * block of it is touched) and its tier route. */
    struct PageEntry
    {
        Addr page;
        Page *data;
        u32 route;
    };

    /** Free page-map slot (no page number reaches it). */
    static constexpr Addr noPage = ~static_cast<Addr>(0);
    /** Route of a page no approximate region claimed. */
    static constexpr u32 noRoute = ~0u;

    u32
    routeOf(const PageEntry &e) const
    {
        return approxParts.empty() || e.route == noRoute ? precisePart
                                                         : e.route;
    }

    static u64
    currentEpoch(const PartitionState &p)
    {
        return p.prof.refreshIntervalAccesses
            ? p.accesses / p.prof.refreshIntervalAccesses
            : 0;
    }

    /**
     * Deterministic fault injection for one demand read: first the
     * retention draws (one per refresh epoch elapsed since the block
     * was last read or written, capped for boundedness), then one
     * read-disturb draw. Draw order is fixed so equal configs replay
     * the exact same fault trace (DESIGN.md §8).
     */
    void
    injectReadFaults(PartitionState &p, Addr aligned, StoredBlock &b)
    {
        if (!injector)
            return;
        const u32 partIdx = static_cast<u32>(&p - parts.data());
        if (p.prof.refreshFaultRate > 0.0 &&
            p.prof.refreshIntervalAccesses > 0) {
            const u64 epoch = currentEpoch(p);
            u64 elapsed = epoch > b.epoch ? epoch - b.epoch : 0;
            // One draw per missed refresh; cap so a long-idle block
            // costs bounded PRNG work (the tail rates are tiny).
            elapsed = std::min<u64>(elapsed, 16);
            for (u64 e = 0; e < elapsed; ++e) {
                if (injector->drawRate(p.prof.refreshFaultRate)) {
                    flipOne(aligned, b, partIdx);
                    ++p.refreshFaults;
                }
            }
            b.epoch = epoch; // the read scrubs accumulated epochs
        }
        if (p.prof.bitErrorRate > 0.0 &&
            injector->drawRate(p.prof.bitErrorRate)) {
            flipOne(aligned, b, partIdx);
            ++p.bitFlips;
        }
    }

    /** Flip one uniformly-picked bit of @p b, record it in the fault
     * trace (field = partition index), and notify the observer. */
    void
    flipOne(Addr aligned, StoredBlock &b, u32 part_idx)
    {
        const u32 bit =
            static_cast<u32>(injector->pick(blockBytes * 8));
        b.bytes[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        injector->record(FaultDomain::MemoryData, aligned, part_idx,
                         bit);
        if (onBitFlip)
            onBitFlip(aligned, b.bytes.data(), bit, part_idx);
    }

    size_t
    pageHome(Addr page) const
    {
        return static_cast<size_t>((page * 0x9E3779B97F4A7C15ULL) >>
                                   pageShift);
    }

    /** Page-map entry of page number @p page, or nullptr. */
    const PageEntry *
    findPage(Addr page) const
    {
        for (size_t i = pageHome(page);; i = (i + 1) & pageMask) {
            const PageEntry &e = pageTable[i];
            if (e.page == page)
                return &e;
            if (e.page == noPage)
                return nullptr;
        }
    }

    PageEntry *
    findPage(Addr page)
    {
        return const_cast<PageEntry *>(
            static_cast<const MainMemory *>(this)->findPage(page));
    }

    /** Page-map entry of page number @p page, inserted (unrouted, not
     * materialized) if absent. Entries are never erased, so only a
     * growth moves them; growth drops the memo. */
    PageEntry &
    pageEntry(Addr page)
    {
        for (size_t i = pageHome(page);; i = (i + 1) & pageMask) {
            PageEntry &e = pageTable[i];
            if (e.page == page)
                return e;
            if (e.page != noPage)
                continue;
            if (2 * (pageUsed + 1) > pageTable.size()) {
                growPageTable();
                return pageEntry(page);
            }
            e = PageEntry{page, nullptr, noRoute};
            ++pageUsed;
            return e;
        }
    }

    /** The materialized page holding block-aligned @p aligned, through
     * the last-page memo. */
    PageEntry &
    pageAt(Addr aligned)
    {
        const Addr page = pageOf(aligned);
        if (page != memoPage) {
            PageEntry &e = pageEntry(page);
            memoPage = page;
            memoSlot = static_cast<size_t>(&e - pageTable.data());
        }
        PageEntry &e = pageTable[memoSlot];
        if (!e.data) {
            arena.push_back(std::make_unique<Page>()); // zero-filled
            e.data = arena.back().get();
        }
        return e;
    }

    static StoredBlock &
    blockIn(PageEntry &e, Addr aligned)
    {
        return e.data->blocks[blockInPage(aligned)];
    }

    void
    growPageTable()
    {
        std::vector<PageEntry> old(pageTable.size() * 2,
                                   PageEntry{noPage, nullptr, noRoute});
        old.swap(pageTable);
        pageMask = pageTable.size() - 1;
        --pageShift;
        for (const PageEntry &e : old) {
            if (e.page == noPage)
                continue;
            size_t i = pageHome(e.page);
            while (pageTable[i].page != noPage)
                i = (i + 1) & pageMask;
            pageTable[i] = e;
        }
        memoPage = noPage;
    }

    struct RouteSpan
    {
        Addr firstPage;
        Addr lastPage;
        u32 partition;
    };

    std::vector<std::unique_ptr<Page>> arena;
    /** Initial page-map capacity (slots); doubles at half load. */
    static constexpr unsigned initialPageBits = 6;
    /** Open addressing, linear probing. */
    std::vector<PageEntry> pageTable = std::vector<PageEntry>(
        size_t{1} << initialPageBits, PageEntry{noPage, nullptr, noRoute});
    size_t pageMask = (size_t{1} << initialPageBits) - 1;
    unsigned pageShift = 64 - initialPageBits;
    size_t pageUsed = 0;
    Addr memoPage = noPage; ///< page number of the last pageAt()
    size_t memoSlot = 0;    ///< its pageTable index
    std::vector<PartitionState> parts;
    std::vector<RouteSpan> approxSpans;
    std::vector<u32> approxParts;
    u32 precisePart = 0;
    u64 nextApproxRegion = 0;
    bool tiered = false;
    bool migratedNow = false;
    u64 migrations_ = 0;
    u64 pagesMigrated_ = 0;
    u64 demandReads = 0;
    u64 writebacks = 0;
    FaultInjector *injector = nullptr;
};

} // namespace dopp

#endif // DOPP_SIM_MEMORY_HH
