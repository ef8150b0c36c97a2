/**
 * @file
 * The workload runtime: our stand-in for the paper's Pin-based
 * instrumentation (Sec 4).
 *
 * Workloads allocate arrays in a simulated physical address space,
 * annotate the approximate ones (type + expected range, the EnerJ-style
 * contract), and perform every load/store through the simulated memory
 * hierarchy. Values read back may therefore be doppelgänger
 * approximations, so application output error is measured end-to-end,
 * exactly like the paper's full-application Pin runs.
 *
 * Block runs: a loop of consecutive same-array loads or stores with no
 * other access between them is one SimArray::getRun/setRun. The
 * runtime cuts it at block boundaries (and where the abort poll or the
 * periodic hook is due) and sends each piece through
 * MemorySystem::accessRun: the first access of a piece takes the
 * normal path, the rest are the L1 hits they must be, for one L1 probe
 * per block. Every access keeps its place, its cycles, its counters
 * and its accessHook call (DESIGN.md §19).
 *
 * Parallelism: the paper runs 4-thread PARSEC/AxBench benchmarks on a
 * 4-core CMP. We execute deterministically, attributing loop chunks to
 * cores round-robin (parallelFor), which preserves 4-core cache
 * sharing/coherence traffic and per-core cycle accounting without host
 * nondeterminism.
 */

#ifndef DOPP_WORKLOADS_RUNTIME_HH
#define DOPP_WORKLOADS_RUNTIME_HH

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/approx.hh"
#include "sim/hierarchy.hh"
#include "sim/memory.hh"
#include "util/logging.hh"
#include "util/types.hh"

namespace dopp
{

/**
 * Thrown out of a simulated access when the run's abort flag is set
 * (the batch runner's per-run watchdog, harness/batch_runner.hh).
 * Unwinds the workload cooperatively — the worker thread survives and
 * the batch runner converts the exception into a failed RunResult.
 */
class RunAborted : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Maps C++ element types to the annotation ElemType. */
template <typename T> struct ElemTypeOf;
template <> struct ElemTypeOf<u8>
{
    static constexpr ElemType value = ElemType::U8;
};
template <> struct ElemTypeOf<i16>
{
    static constexpr ElemType value = ElemType::I16;
};
template <> struct ElemTypeOf<i32>
{
    static constexpr ElemType value = ElemType::I32;
};
template <> struct ElemTypeOf<float>
{
    static constexpr ElemType value = ElemType::F32;
};
template <> struct ElemTypeOf<double>
{
    static constexpr ElemType value = ElemType::F64;
};

/**
 * Execution context binding a workload to a memory system: address
 * allocation, per-core cycle accounting, and the access funnel.
 *
 * The runtime is slice-agnostic: accesses funnel into the hierarchy
 * unchanged, and when the run is sliced (DESIGN.md §15) the routing
 * of each block address to its sub-LLC happens inside the SlicedLlc
 * front end (sim/sliced_llc.hh), below the hierarchy.
 */
class SimRuntime
{
  public:
    /**
     * @param system the coherent hierarchy to drive
     * @param memory its backing store (for traffic-free init/readout)
     * @param registry annotation registry shared with the LLC
     */
    SimRuntime(MemorySystem &system, MainMemory &memory,
               ApproxRegistry &registry)
        : sys(system), mem(memory), reg(registry),
          cycles(system.numCores(), 0)
    {
    }

    /** Allocate @p bytes of simulated address space (page-aligned). */
    Addr
    allocate(u64 bytes, const std::string &name)
    {
        (void)name;
        const Addr base = nextAddr;
        nextAddr += (bytes + 4095) & ~static_cast<Addr>(4095);
        return base;
    }

    /** Register an approximate region (programmer annotation, Sec 4). */
    void
    annotate(Addr base, u64 bytes, ElemType type, double min_value,
             double max_value, const std::string &name)
    {
        ApproxRegion r;
        r.base = base;
        r.size = bytes;
        r.type = type;
        r.minValue = min_value;
        r.maxValue = max_value;
        r.name = name;
        reg.add(r);
        mem.routeApprox(base, bytes);
    }

    /** Select the core issuing subsequent accesses. */
    void
    setCore(CoreId core)
    {
        DOPP_ASSERT(core < cycles.size());
        currentCore = core;
    }

    CoreId core() const { return currentCore; }

    /** Simulated load of a T at @p addr, through the hierarchy. */
    template <typename T>
    T
    load(Addr addr)
    {
        T value{};
        const Tick lat =
            sys.access(currentCore, addr, false, sizeof(T), &value);
        cycles[currentCore] += charge(lat) + workPerAccess;
        if (accessHook)
            accessHook(addr, false, sizeof(T), 0);
        tickHook();
        return value;
    }

    /** Simulated store of a T at @p addr, through the hierarchy. */
    template <typename T>
    void
    store(Addr addr, T value)
    {
        const Tick lat =
            sys.access(currentCore, addr, true, sizeof(T), &value);
        cycles[currentCore] += charge(lat) + workPerAccess;
        if (accessHook) {
            u64 payload = 0;
            std::memcpy(&payload, &value, sizeof(T));
            accessHook(addr, true, sizeof(T), payload);
        }
        tickHook();
    }

    /**
     * Simulated loads of @p count consecutive T elements from @p addr
     * into @p out, in ascending order: the same accesses, cycles,
     * counters, hooks and values as @p count load() calls, with one L1
     * probe per block instead of one per element (DESIGN.md §19).
     */
    template <typename T>
    void
    loadRun(Addr addr, u64 count, T *out)
    {
        accessRuns(addr, count, false, out);
    }

    /** Simulated stores of @p count consecutive T elements from @p in,
     * as @p count store() calls would make them (see loadRun). */
    template <typename T>
    void
    storeRun(Addr addr, u64 count, const T *in)
    {
        // A store run only reads its buffer.
        accessRuns(addr, count, true, const_cast<T *>(in));
    }

    /** Charge @p n compute cycles to the current core (non-memory
     * instructions of the kernel). */
    void
    addWork(u64 n)
    {
        cycles[currentCore] += n;
    }

    /**
     * Run @p body(u64) for each index in [begin, end), attributing
     * chunks of @p chunk consecutive indices to cores 0..N-1
     * round-robin. A template, so a kernel's body inlines into the
     * loop instead of costing an indirect call per element.
     */
    template <typename Body>
    void
    parallelFor(u64 begin, u64 end, u64 chunk, Body &&body)
    {
        DOPP_ASSERT(chunk > 0);
        const u32 n = sys.numCores();
        u64 i = begin;
        u64 c = 0;
        while (i < end) {
            setCore(static_cast<CoreId>(c % n));
            const u64 stop = std::min(end, i + chunk);
            for (; i < stop; ++i)
                body(i);
            ++c;
        }
        setCore(0);
    }

    /** Workload runtime in cycles: the slowest core's total. */
    Tick
    runtime() const
    {
        Tick worst = 0;
        for (Tick t : cycles)
            worst = std::max(worst, t);
        return worst;
    }

    /** Cycles charged to @p core so far. */
    Tick
    coreCycles(CoreId core) const
    {
        DOPP_ASSERT(core < cycles.size());
        return cycles[core];
    }

    /** Sum of all cores' cycles (for averages). */
    Tick
    totalCycles() const
    {
        Tick sum = 0;
        for (Tick t : cycles)
            sum += t;
        return sum;
    }

    /** Install a hook run every @p every_n accesses (LLC snapshots). */
    void
    setPeriodicHook(u64 every_n, std::function<void()> hook)
    {
        hookPeriod = every_n;
        periodicHook = std::move(hook);
    }

    /** Total simulated accesses so far. */
    u64 accesses() const { return accessCount; }

    /**
     * Optional per-access recorder (addr, is_write, size, payload),
     * invoked after every simulated load/store — the hook behind trace
     * capture (sim/trace.hh). Payload carries a store's raw bits. A
     * block run calls it per element, in order, once the run's block
     * access is done, so it must record, not read the hierarchy.
     */
    std::function<void(Addr, bool, unsigned, u64)> accessHook;

    MemorySystem &system() { return sys; }
    MainMemory &memory() { return mem; }
    ApproxRegistry &registry() { return reg; }

    /**
     * Optional cooperative abort flag, polled every
     * setAbortPollInterval() accesses (default 4096) on the access
     * path (cheap: one relaxed load per poll). When it reads true the
     * current access throws RunAborted, unwinding the workload without
     * touching the owning thread. The flag must outlive the run.
     */
    const std::atomic<bool> *abortFlag = nullptr;

    /**
     * Set how many accesses elapse between abort-flag polls. @p every
     * is rounded up to the next power of two (the poll predicate is a
     * mask test); 0 restores the 4096-access default. A tighter
     * interval shortens the latency between the watchdog raising the
     * flag and the run actually unwinding, at the cost of one extra
     * relaxed atomic load per poll.
     */
    void
    setAbortPollInterval(u64 every)
    {
        if (every == 0) {
            abortPollMask = 0xFFF;
            return;
        }
        u64 pow2 = 1;
        while (pow2 < every && pow2 < (u64{1} << 62))
            pow2 <<= 1;
        abortPollMask = pow2 - 1;
    }

    /** Current abort-poll interval in accesses (a power of two). */
    u64 abortPollInterval() const { return abortPollMask + 1; }

    /** Compute cycles charged alongside every access (a simple stand-in
     * for the surrounding ALU work of a 4-wide OoO core). */
    u64 workPerAccess = 2;

    /**
     * Fraction of beyond-L2 stall cycles actually exposed to the core.
     * The paper's 4-wide, 80-entry-ROB OoO cores overlap much of a
     * miss's latency with independent work and other misses (MLP); an
     * in-order accounting that charged the full 166 cycles per miss
     * would exaggerate every LLC-miss-rate difference. The factor is
     * applied identically to every LLC organization, so it rescales —
     * never reorders — normalized-runtime comparisons.
     */
    double memStallFactor = 0.35;

  private:
    /** Exposed stall for a raw hierarchy latency (see memStallFactor):
     * the private-level portion (≤ L1+L2) is always charged in full. */
    Tick
    charge(Tick lat) const
    {
        constexpr Tick privateLat = 4; // L1 (1) + L2 (3)
        if (lat <= privateLat)
            return lat;
        return privateLat + static_cast<Tick>(
            static_cast<double>(lat - privateLat) * memStallFactor);
    }

    /**
     * loadRun/storeRun: cut [@p addr, + @p count elements) into runs,
     * each inside one block and ending no later than the next access
     * at which the abort flag is polled or the periodic hook fires (so
     * both see the count and state per-element accesses leave), and
     * send each through MemorySystem::accessRun. The first access of a
     * run is charged its latency, the rest an L1 hit each.
     */
    template <typename T>
    void
    accessRuns(Addr addr, u64 count, bool is_write, T *data)
    {
        DOPP_ASSERT(addr % sizeof(T) == 0);
        while (count > 0) {
            u64 n = (blockBytes - blockOffset(addr)) / sizeof(T);
            n = std::min(n, count);
            if (abortFlag)
                n = std::min(n, abortPollMask + 1 -
                                    (accessCount & abortPollMask));
            if (periodicHook && hookPeriod)
                n = std::min(n, hookPeriod - accessCount % hookPeriod);
            const unsigned k = static_cast<unsigned>(n);

            const Tick lat = sys.accessRun(currentCore, addr, is_write,
                                           sizeof(T), k, data);
            cycles[currentCore] += charge(lat) + workPerAccess +
                (k - 1) * (charge(sys.l1Latency()) + workPerAccess);
            if (accessHook) {
                for (unsigned j = 0; j < k; ++j) {
                    u64 payload = 0;
                    if (is_write)
                        std::memcpy(&payload, &data[j], sizeof(T));
                    accessHook(addr + j * sizeof(T), is_write, sizeof(T),
                               payload);
                }
            }
            tickHook(k);
            addr += k * sizeof(T);
            data += k;
            count -= k;
        }
    }

    /** Count @p n accesses; the abort poll and the periodic hook run
     * when the last of them reaches their interval (accessRuns never
     * lets a run step over one). */
    void
    tickHook(u64 n = 1)
    {
        accessCount += n;
        if (abortFlag && (accessCount & abortPollMask) == 0 &&
            abortFlag->load(std::memory_order_relaxed)) {
            throw RunAborted("run aborted");
        }
        if (periodicHook && hookPeriod && accessCount % hookPeriod == 0)
            periodicHook();
    }

    MemorySystem &sys;
    MainMemory &mem;
    ApproxRegistry &reg;
    std::vector<Tick> cycles;
    CoreId currentCore = 0;
    Addr nextAddr = 0x10000000;
    u64 accessCount = 0;
    u64 abortPollMask = 0xFFF; ///< poll when (count & mask) == 0
    u64 hookPeriod = 0;
    std::function<void()> periodicHook;
};

/**
 * A typed array living in the simulated address space. get()/set() go
 * through the hierarchy (and are what the annotation makes lossy);
 * poke()/peek() bypass it for input setup and final readout.
 */
template <typename T>
class SimArray
{
  public:
    SimArray(SimRuntime &rt, u64 count, const std::string &name)
        : rt(&rt), base(rt.allocate(count * sizeof(T), name)), n(count)
    {
    }

    /** Annotate the whole array approximate with the given range. */
    void
    annotateApprox(double min_value, double max_value,
                   const std::string &name)
    {
        rt->annotate(base, n * sizeof(T), ElemTypeOf<T>::value,
                     min_value, max_value, name);
    }

    /** Simulated read of element @p i. */
    T
    get(u64 i) const
    {
        DOPP_ASSERT(i < n);
        return rt->load<T>(base + i * sizeof(T));
    }

    /** Simulated write of element @p i. */
    void
    set(u64 i, T v)
    {
        DOPP_ASSERT(i < n);
        rt->store<T>(base + i * sizeof(T), v);
    }

    /** Simulated reads of elements [@p i, @p i + @p count) into
     * @p out: count get() calls, one L1 probe per block. */
    void
    getRun(u64 i, u64 count, T *out) const
    {
        DOPP_ASSERT(i <= n && count <= n - i);
        rt->loadRun<T>(base + i * sizeof(T), count, out);
    }

    /** Simulated writes of @p in to elements [@p i, @p i + @p count):
     * count set() calls, one L1 probe per block. */
    void
    setRun(u64 i, u64 count, const T *in)
    {
        DOPP_ASSERT(i <= n && count <= n - i);
        rt->storeRun<T>(base + i * sizeof(T), count, in);
    }

    /** Traffic-free initialization write. */
    void
    poke(u64 i, T v)
    {
        DOPP_ASSERT(i < n);
        rt->memory().poke(base + i * sizeof(T), &v, sizeof(T));
    }

    /** Traffic-free initialization of elements [@p i, @p i + @p count)
     * from @p in. */
    void
    pokeRun(u64 i, u64 count, const T *in)
    {
        DOPP_ASSERT(i <= n && count <= n - i);
        rt->memory().poke(base + i * sizeof(T), in, count * sizeof(T));
    }

    /** Traffic-free read of backing memory (drain the hierarchy before
     * trusting this for post-run values). */
    T
    peek(u64 i) const
    {
        DOPP_ASSERT(i < n);
        T v{};
        rt->memory().peek(base + i * sizeof(T), &v, sizeof(T));
        return v;
    }

    u64 size() const { return n; }
    Addr addrOf(u64 i) const { return base + i * sizeof(T); }
    Addr baseAddr() const { return base; }
    u64 bytes() const { return n * sizeof(T); }

  private:
    SimRuntime *rt;
    Addr base;
    u64 n;
};

} // namespace dopp

#endif // DOPP_WORKLOADS_RUNTIME_HH
