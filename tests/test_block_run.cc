/**
 * @file
 * Block-run differential suite: a run of same-block element accesses
 * (SimArray::getRun/setRun → SimRuntime::loadRun/storeRun →
 * MemorySystem::accessRun) must leave exactly what the per-element
 * get()/set() loop leaves (DESIGN.md §19). Every test builds two
 * identical stacks — MainMemory, a factory LLC, fault injector and
 * guardrail wired as runWorkload wires them, the hierarchy and a
 * SimRuntime with one array per element type — drives one with runs
 * and the other with element loops over the same seeded stream (u8,
 * i16, i32, f32 and f64 runs of 1 to 40 elements at any start, loads
 * and stores on all four cores, conflicting single accesses from
 * other cores in between), and requires equal:
 *  - loaded values, per-core cycles and access counts;
 *  - per-access latencies of a common follow-up stream, which only
 *    match when both left the same L1 replacement order;
 *  - the StatRegistry snapshot and the memory image after drain();
 *  - the fault trace;
 *  - what the access hook, the periodic hook and the abort flag see.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/fault_injector.hh"
#include "fault/qor_guardrail.hh"
#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "util/hash.hh"
#include "util/random.hh"
#include "workloads/runtime.hh"

namespace dopp
{

namespace
{

constexpr u32 cores = 4;
/** Elements per array: 304 KB over the five, against a 256 KB LLC
 * and 128 KB private L2s, so runs miss, upgrade and back-invalidate. */
constexpr u64 elems = 16384;

RunConfig
stackConfig(const std::string &org, bool tiered)
{
    RunConfig cfg;
    cfg.llcName = org;
    cfg.baselineBytes = 256 * 1024;
    if (tiered) {
        // perfbench tiered-writes' stack, at fault rates that fire
        // within a short stream.
        cfg.sliceCount = 4;
        cfg.sliceHash = "sandybridge";
        cfg.memTier = defaultMemTier(2e-4, 1e-3);
        cfg.fault.seed = 0xB10C;
        cfg.fault.dataRate = 1e-3;
        cfg.fault.tagMetaRate = 5e-4;
        cfg.fault.mtagMetaRate = 2e-4;
        cfg.qor.budget = 0.01;
        cfg.qor.window = 128;
        cfg.qor.minDwell = 32;
        cfg.qor.migrateFactor = 1.5;
        cfg.qor.migrateDwell = 64;
    }
    return cfg;
}

/** One complete stack, wired in runWorkload's order, with one array
 * per element type: i32 precise, the other four annotated. */
struct Stack
{
    explicit Stack(const RunConfig &c) : cfg(c), mem(cfg.memTier)
    {
        mem.registerStats(stats.group("mem"));
        registerBuiltinLlcs();
        built = buildLlc(cfg.llcName, mem, registry, cfg, stats);
        LastLevelCache &llc = *built.llc;
        if (cfg.fault.enabled() || cfg.memTier.anyFaultRate()) {
            injector = std::make_unique<FaultInjector>(cfg.fault);
            injector->registerStats(stats.group("fault"));
        }
        if (cfg.qor.enabled()) {
            guard = std::make_unique<QorGuardrail>(cfg.qor);
            guard->registerStats(stats.group("qor"));
        }
        if (injector && cfg.memTier.enabled()) {
            mem.setFaultInjector(injector.get());
            QorGuardrail *g = guard.get();
            ApproxRegistry *r = &registry;
            mem.onBitFlip = [g, r](Addr addr, u8 *block, u32 bit, u32) {
                const ApproxRegion *region = g ? r->find(addr) : nullptr;
                if (!region)
                    return;
                // Scored as runWorkload does: the flip is already
                // applied, so flipping a copy back gives |after − before|.
                BlockData copy;
                std::memcpy(copy.data(), block, blockBytes);
                g->observeError(flipBitError(copy.data(), bit,
                                             region->type, region->span()));
            };
        }
        if (guard && cfg.memTier.enabled() && cfg.qor.migrateFactor > 0.0) {
            MainMemory *m = &mem;
            guard->onMigrate = [m](bool migrate) {
                if (migrate)
                    m->migrateApproxToPrecise();
                else
                    m->restoreApproxRoutes();
            };
        }
        if (injector)
            llc.setFaultInjector(injector.get());
        if (guard)
            llc.setGuardrail(guard.get());

        sys = std::make_unique<MemorySystem>(HierarchyConfig{}, llc, mem,
                                             &stats, "hierarchy");
        rt = std::make_unique<SimRuntime>(*sys, mem, registry);
        a8 = std::make_unique<SimArray<u8>>(*rt, elems, "u8");
        a16 = std::make_unique<SimArray<i16>>(*rt, elems, "i16");
        a32 = std::make_unique<SimArray<i32>>(*rt, elems, "i32");
        f32 = std::make_unique<SimArray<float>>(*rt, elems, "f32");
        f64 = std::make_unique<SimArray<double>>(*rt, elems, "f64");
        a8->annotateApprox(0.0, 255.0, "u8");
        a16->annotateApprox(-1024.0, 1023.0, "i16");
        f32->annotateApprox(0.0, 1.0, "f32");
        f64->annotateApprox(0.0, 1.0, "f64");

        Rng fill(0xF111);
        for (u64 i = 0; i < elems; ++i) {
            a8->poke(i, value<u8>(fill));
            a16->poke(i, value<i16>(fill));
            a32->poke(i, value<i32>(fill));
            f32->poke(i, value<float>(fill));
            f64->poke(i, value<double>(fill));
        }
    }

    /** An in-range value of T (the annotated ranges above). */
    template <typename T>
    static T
    value(Rng &rng)
    {
        if constexpr (std::is_same_v<T, u8>)
            return static_cast<u8>(rng.below(256));
        else if constexpr (std::is_same_v<T, i16>)
            return static_cast<i16>(static_cast<i64>(rng.below(2048)) - 1024);
        else if constexpr (std::is_same_v<T, i32>)
            return static_cast<i32>(rng.next());
        else
            return static_cast<T>(static_cast<double>(rng.below(1000)) /
                                  1000.0);
    }

    /** Call @p f with the array of element kind @p kind (0..4). */
    template <typename F>
    void
    withArray(u64 kind, F &&f)
    {
        switch (kind) {
          case 0: f(*a8); break;
          case 1: f(*a16); break;
          case 2: f(*a32); break;
          case 3: f(*f32); break;
          default: f(*f64); break;
        }
    }

    RunConfig cfg;
    StatRegistry stats;
    MainMemory mem;
    ApproxRegistry registry;
    LlcBuilt built;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<QorGuardrail> guard;
    std::unique_ptr<MemorySystem> sys;
    std::unique_ptr<SimRuntime> rt;
    std::unique_ptr<SimArray<u8>> a8;
    std::unique_ptr<SimArray<i16>> a16;
    std::unique_ptr<SimArray<i32>> a32;
    std::unique_ptr<SimArray<float>> f32;
    std::unique_ptr<SimArray<double>> f64;
};

/** The bits of @p v, zero-extended. */
template <typename T>
u64
bitsOf(T v)
{
    u64 b = 0;
    std::memcpy(&b, &v, sizeof(T));
    return b;
}

/** What one drive observed. */
struct Outcome
{
    std::vector<u64> loaded;   ///< every loaded element's bits
    std::vector<Tick> cycles;  ///< per core
    u64 accesses = 0;
    std::vector<u64> followUp; ///< (latency, loaded bits) per access
    StatSnapshot stats;
    std::string image;         ///< every array's bytes after drain
    std::vector<FaultEvent> faults;
    std::vector<u64> hookLog;  ///< access / periodic hook records
    u64 abortedAt = 0;         ///< access count at RunAborted, or 0
    bool invariantsOk = true;
    std::string invariantsWhy;
};

/** How to drive a stack. */
struct DriveOpts
{
    u64 runs = 2500;
    u64 seed = 0xB10C4;
    bool accessHook = false;
    u64 period = 0;          ///< periodic hook interval (0: none)
    u64 abortAfterRun = 0;   ///< raise the abort flag then (0: never)
};

/** Digest of every block the LLC holds, in its visit order. */
u64
llcDigest(const LastLevelCache &llc)
{
    u64 h = fnv1a64Basis;
    llc.forEachBlock([&h](const LlcBlockInfo &b) {
        for (unsigned i = 0; i < 8; ++i)
            h = fnv1a64Step(h, static_cast<u8>(b.addr >> (8 * i)));
        for (unsigned i = 0; i < blockBytes; ++i)
            h = fnv1a64Step(h, b.data[i]);
        h = fnv1a64Step(h, b.dirty);
    });
    return h;
}

/**
 * Drive a fresh @p cfg stack with the @p opt stream, as runs
 * (@p runs) or as element loops, then the common follow-up stream.
 */
Outcome
drive(const RunConfig &cfg, bool runs, const DriveOpts &opt)
{
    Stack st(cfg);
    SimRuntime &rt = *st.rt;
    Outcome out;

    if (opt.accessHook) {
        rt.accessHook = [&out, &rt](Addr a, bool w, unsigned size,
                                    u64 payload) {
            out.hookLog.push_back(a);
            out.hookLog.push_back((u64{w} << 40) | (u64{size} << 32) |
                                  rt.core());
            out.hookLog.push_back(payload);
        };
    }
    if (opt.period) {
        rt.setPeriodicHook(opt.period, [&out, &st, &rt] {
            out.hookLog.push_back(rt.accesses());
            for (CoreId c = 0; c < cores; ++c)
                out.hookLog.push_back(rt.coreCycles(c));
            out.hookLog.push_back(fnv1a64(st.stats.snapshot().json()));
            out.hookLog.push_back(llcDigest(*st.built.llc));
        });
    }
    std::atomic<bool> abort{false};
    if (opt.abortAfterRun) {
        rt.abortFlag = &abort;
        rt.setAbortPollInterval(64);
    }

    Rng rng(opt.seed);
    try {
        for (u64 n = 0; n < opt.runs; ++n) {
            if (opt.abortAfterRun && n == opt.abortAfterRun)
                abort.store(true);
            const CoreId core = static_cast<CoreId>(rng.below(cores));
            const u64 kind = rng.below(5);
            const u64 len = 1 + rng.below(40);
            const bool write = rng.below(100) < 40;
            // Cores work in overlapping windows, so runs meet lines
            // other cores hold (upgrades, remote fetches).
            const u64 window = elems / cores + 2048;
            const u64 start =
                (core * (elems / cores) + rng.below(window)) % (elems - len);
            st.withArray(kind, [&](auto &arr) {
                using T = decltype(arr.get(0));
                T buf[40];
                rt.setCore(core);
                if (write) {
                    for (u64 j = 0; j < len; ++j)
                        buf[j] = Stack::value<T>(rng);
                    if (runs) {
                        arr.setRun(start, len, buf);
                    } else {
                        for (u64 j = 0; j < len; ++j)
                            arr.set(start + j, buf[j]);
                    }
                } else {
                    if (runs) {
                        arr.getRun(start, len, buf);
                    } else {
                        for (u64 j = 0; j < len; ++j)
                            buf[j] = arr.get(start + j);
                    }
                    for (u64 j = 0; j < len; ++j)
                        out.loaded.push_back(bitsOf(buf[j]));
                }
                // Conflicting single accesses from other cores near
                // the run.
                const u64 others = rng.below(4);
                for (u64 o = 0; o < others; ++o) {
                    rt.setCore(static_cast<CoreId>(
                        (core + 1 + rng.below(cores - 1)) % cores));
                    const u64 i = std::min(elems - 1,
                                           start + rng.below(len + 16));
                    if (rng.below(2))
                        arr.set(i, Stack::value<T>(rng));
                    else
                        out.loaded.push_back(bitsOf(arr.get(i)));
                }
            });
        }
    } catch (const RunAborted &) {
        out.abortedAt = rt.accesses();
    }
    rt.setCore(0);
    out.invariantsOk = st.sys->checkInvariants(&out.invariantsWhy);
    for (CoreId c = 0; c < cores; ++c)
        out.cycles.push_back(rt.coreCycles(c));
    out.accesses = rt.accesses();

    // Common follow-up: single accesses whose latencies depend on the
    // L1/L2 replacement order the drive left behind.
    Rng follow(opt.seed ^ 0xF0110);
    for (u64 n = 0; n < 20000; ++n) {
        const CoreId core = static_cast<CoreId>(follow.below(cores));
        const u64 kind = follow.below(5);
        const u64 i = follow.below(elems);
        const bool write = follow.below(100) < 30;
        st.withArray(kind, [&](auto &arr) {
            using T = decltype(arr.get(0));
            T v = write ? Stack::value<T>(follow) : T{};
            out.followUp.push_back(st.sys->access(core, arr.addrOf(i),
                                                  write, sizeof(T), &v));
            out.followUp.push_back(write ? 0 : bitsOf(v));
        });
    }

    st.sys->drain();
    out.stats = st.stats.snapshot();
    for (u64 kind = 0; kind < 5; ++kind) {
        st.withArray(kind, [&](auto &arr) {
            std::string bytes(arr.bytes(), '\0');
            st.mem.peek(arr.baseAddr(), bytes.data(), bytes.size());
            out.image += bytes;
        });
    }
    if (st.injector)
        out.faults = st.injector->events();
    return out;
}

/** Drive @p cfg both ways and require identical outcomes.
 * @return the run-driven outcome, for coverage checks. */
Outcome
expectIdentical(const RunConfig &cfg, const DriveOpts &opt = {})
{
    SCOPED_TRACE(cfg.llcName);
    const Outcome loop = drive(cfg, false, opt);
    const Outcome run = drive(cfg, true, opt);

    EXPECT_TRUE(loop.invariantsOk) << loop.invariantsWhy;
    EXPECT_TRUE(run.invariantsOk) << run.invariantsWhy;
    EXPECT_TRUE(run.loaded == loop.loaded) << "loaded values differ";
    EXPECT_EQ(run.cycles, loop.cycles);
    EXPECT_EQ(run.accesses, loop.accesses);
    EXPECT_TRUE(run.followUp == loop.followUp)
        << "follow-up latencies differ: L1 replacement order diverged";
    EXPECT_TRUE(run.stats == loop.stats)
        << "element loop:\n" << loop.stats.json() << "\nruns:\n"
        << run.stats.json();
    EXPECT_TRUE(run.image == loop.image) << "memory images differ";
    EXPECT_TRUE(run.hookLog == loop.hookLog) << "hooks saw different runs";
    EXPECT_EQ(run.abortedAt, loop.abortedAt);
    EXPECT_EQ(run.faults.size(), loop.faults.size());
    for (size_t i = 0; i < std::min(run.faults.size(), loop.faults.size());
         ++i) {
        const FaultEvent &a = loop.faults[i];
        const FaultEvent &b = run.faults[i];
        EXPECT_TRUE(a.op == b.op && a.domain == b.domain &&
                    a.entry == b.entry && a.field == b.field &&
                    a.bit == b.bit)
            << "fault event " << i << " differs";
    }
    return run;
}

} // namespace

TEST(BlockRun, BaselineMatchesElementLoop)
{
    const Outcome o = expectIdentical(stackConfig("baseline", false));
    // The stream misses, upgrades and fetches remotely.
    EXPECT_GT(o.stats.counter("hierarchy.l1.misses"), 1000u);
    EXPECT_GT(o.stats.counter("hierarchy.upgrades"), 100u);
    EXPECT_GT(o.stats.counter("hierarchy.remoteFetches"), 100u);
    EXPECT_GT(o.stats.counter("llc.fetchMisses"), 100u);
}

TEST(BlockRun, SplitDoppelgangerMatchesElementLoop)
{
    const Outcome o =
        expectIdentical(stackConfig("split-doppelganger", false));
    EXPECT_GT(o.stats.counter("llc.dopp.mapGens"), 100u);
}

TEST(BlockRun, UniDoppelgangerMatchesElementLoop)
{
    expectIdentical(stackConfig("uniDoppelganger", false));
}

TEST(BlockRun, TieredFaultedSlicesMatchElementLoop)
{
    const Outcome o = expectIdentical(stackConfig("split-doppelganger", true));
    EXPECT_FALSE(o.faults.empty());
}

TEST(BlockRun, AccessHookSeesEveryElementInOrder)
{
    DriveOpts opt;
    opt.runs = 800;
    opt.accessHook = true;
    const Outcome o = expectIdentical(stackConfig("baseline", false), opt);
    EXPECT_EQ(o.hookLog.size(), 3 * o.accesses);
}

TEST(BlockRun, PeriodicHookFiresAtTheSameCounts)
{
    DriveOpts opt;
    opt.runs = 800;
    opt.period = 29; // odd, so most runs straddle a firing
    const Outcome o =
        expectIdentical(stackConfig("split-doppelganger", false), opt);
    EXPECT_EQ(o.hookLog.size(), (o.accesses / opt.period) * (cores + 3));
}

TEST(BlockRun, AbortThrowsAtTheSameAccess)
{
    DriveOpts opt;
    opt.runs = 800;
    opt.abortAfterRun = 300;
    const Outcome o =
        expectIdentical(stackConfig("split-doppelganger", true), opt);
    EXPECT_GT(o.abortedAt, 0u);
    EXPECT_EQ(o.abortedAt % 64, 0u);
}

TEST(BlockRun, RunSplitsAtBlockBoundaries)
{
    // 40 floats from element 10 span bytes [40, 200): blocks 0..3 of
    // the array, all cold.
    Stack st(stackConfig("baseline", false));
    float buf[40];
    st.f32->getRun(10, 40, buf);
    const StatSnapshot s = st.stats.snapshot();
    EXPECT_EQ(s.counter("hierarchy.accesses"), 40u);
    EXPECT_EQ(s.counter("hierarchy.loads"), 40u);
    EXPECT_EQ(s.counter("hierarchy.l1.misses"), 4u);
    EXPECT_EQ(s.counter("hierarchy.l1.hits"), 36u);
    EXPECT_EQ(st.rt->accesses(), 40u);
    for (u64 j = 0; j < 40; ++j)
        EXPECT_EQ(bitsOf(buf[j]), bitsOf(st.f32->peek(10 + j)));
}

} // namespace dopp
