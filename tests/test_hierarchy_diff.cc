/**
 * @file
 * Differential hierarchy harness: the optimized MemorySystem (SoA
 * private caches, flat directory, owned bit; DESIGN.md §18) must be
 * bit-identical to the frozen reference hierarchy (hierarchy_ref.hh)
 * for any access stream. Every test here builds two complete stacks —
 * MainMemory, an LLC organization from the factory, fault injector and
 * guardrail wired as runWorkload wires them, and a hierarchy — drives
 * both with the same seeded randomized 4-core load/store stream, and
 * asserts exact equality of:
 *  - the data every load returns and the latency of every access;
 *  - the StatRegistry snapshot;
 *  - the final memory image after drain();
 *  - the fault trace.
 * The optimized hierarchy's checkInvariants() runs every 1,000 ops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "fault/qor_guardrail.hh"
#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "hierarchy_ref.hh"
#include "sim/hierarchy.hh"
#include "util/random.hh"

namespace dopp
{

namespace
{

/** Which optional machinery a run attaches. */
enum class Variant
{
    Clean,       ///< no injector, no guardrail
    Faulted,     ///< LLC data/metadata and flat-memory faults
    Guardrailed, ///< Faulted plus an active QoR guardrail
    Tiered,      ///< tiered memory with per-partition faults, migration
    FourSlices,  ///< the organization behind 4 Sandy Bridge slices
};

/** Shape of one differential run. */
struct DiffOpts
{
    Variant variant = Variant::Clean;
    u64 ops = 40000;               ///< accesses in the stream
    u64 seed = 0x41E2D1FF;         ///< stream seed
    u64 baselineBytes = 256 * 1024; ///< LLC geometry (Table 1 knob)
    u64 drainEvery = 15000;        ///< a mid-stream drain() period
};

/** Annotated F32 region: blocks [0, approxBlocks). */
constexpr u64 approxBlocks = 6144;
/** Precise region: blocks of [preciseBase, +preciseBlocks * 64). */
constexpr Addr preciseBase = Addr{1} << 22;
constexpr u64 preciseBlocks = 4096;
constexpr u32 cores = 4;
constexpr u64 invariantPeriod = 1000;

RunConfig
configFor(const std::string &org, const DiffOpts &opt)
{
    RunConfig cfg;
    cfg.workloadName = "hierarchy-diff";
    cfg.llcName = org;
    cfg.baselineBytes = opt.baselineBytes;
    const bool faulted = opt.variant == Variant::Faulted ||
        opt.variant == Variant::Guardrailed;
    if (faulted) {
        cfg.fault.seed = opt.seed ^ 0xFA017;
        cfg.fault.memoryRate = 2e-3;
        cfg.fault.dataRate = 1e-3;
        cfg.fault.tagMetaRate = 5e-4;
        cfg.fault.mtagMetaRate = 2e-4;
    }
    if (opt.variant == Variant::Guardrailed ||
        opt.variant == Variant::Tiered) {
        cfg.qor.budget = 0.01;
        cfg.qor.window = 128;
        cfg.qor.minDwell = 32;
    }
    if (opt.variant == Variant::Tiered) {
        cfg.memTier = defaultMemTier(2e-4, 1e-3);
        cfg.fault.seed = opt.seed ^ 0x7133D;
        cfg.qor.migrateFactor = 1.5;
        cfg.qor.migrateDwell = 64;
    }
    if (opt.variant == Variant::FourSlices) {
        cfg.sliceCount = 4;
        cfg.sliceHash = "sandybridge";
    }
    return cfg;
}

/** Normalized error of a bit flip, clamped like runWorkload's hooks. */
double
flipError(double before, double after, const ApproxRegion &region)
{
    double err =
        std::abs(after - before) / std::max(region.span(), 1e-30);
    if (!std::isfinite(err) || err > 1.0)
        err = 1.0;
    return err;
}

/** Back-invalidations the hierarchy served, by what the evicted block
 * had above the LLC. */
struct BackInvalKinds
{
    u64 noCopy = 0;      ///< in no private cache: nothing invalidated
    u64 cleanShared = 0; ///< clean copies in two or more cores
    u64 dirtyOwner = 0;  ///< a dirty copy, written back to the LLC

    bool operator==(const BackInvalKinds &) const = default;
};

/**
 * Transparent LLC front that the hierarchy under test is wired to: it
 * forwards every call to the real LLC and classifies each
 * back-invalidation by the hook's result and by how many private
 * copies it invalidated (the hierarchy's invalidationsSent counter;
 * a core holds at most an L1 and an L2 copy, so more than two copies
 * span two or more cores).
 */
class ClassifyingLlc : public LastLevelCache
{
  public:
    ClassifyingLlc(MainMemory &memory, LastLevelCache &inner_llc,
                   const StatRegistry &stat_registry,
                   BackInvalKinds &kinds_out)
        : LastLevelCache(memory, nullptr, "classify"), inner(inner_llc),
          reg(stat_registry), kinds(kinds_out)
    {
    }

    FetchResult
    fetch(Addr addr, u8 *data) override
    {
        return inner.fetch(addr, data);
    }
    void
    writeback(Addr addr, const u8 *data) override
    {
        inner.writeback(addr, data);
    }
    bool contains(Addr addr) const override { return inner.contains(addr); }
    void
    forEachBlock(const std::function<void(const LlcBlockInfo &)> &visit)
        const override
    {
        inner.forEachBlock(visit);
    }
    void flush() override { inner.flush(); }
    const char *name() const override { return inner.name(); }

    void
    setBackInvalidate(BackInvalidateFn fn) override
    {
        inner.setBackInvalidate([this, fn = std::move(fn)](Addr addr,
                                                           u8 *data) {
            const u64 before = sent();
            const bool dirty = fn(addr, data);
            const u64 copies = sent() - before;
            if (dirty)
                ++kinds.dirtyOwner;
            else if (copies == 0)
                ++kinds.noCopy;
            else if (copies > 2)
                ++kinds.cleanShared;
            return dirty;
        });
    }

  private:
    u64
    sent() const
    {
        return reg.counterValue("hierarchy.invalidationsSent");
    }

    LastLevelCache &inner;
    const StatRegistry &reg;
    BackInvalKinds &kinds;
};

/** Observable outcome of one run. */
struct Outcome
{
    std::vector<u64> trace; ///< (latency, loaded bytes) per access
    StatSnapshot stats;
    std::string image;      ///< every byte of the footprint after drain
    std::vector<FaultEvent> faults;
    BackInvalKinds backInvals;
    bool invariantsOk = true;
    std::string invariantsWhy;
};

/**
 * One complete stack — memory, registry, LLC, injector, guardrail and
 * either hierarchy — wired in runWorkload's order (registration order
 * is snapshot order), then driven by the DiffOpts-seeded stream.
 */
Outcome
runStack(const std::string &org, bool reference, const DiffOpts &opt)
{
    const RunConfig cfg = configFor(org, opt);
    StatRegistry statReg;
    MainMemory mem(cfg.memTier);
    mem.registerStats(statReg.group("mem"));

    ApproxRegistry registry;
    ApproxRegion region;
    region.base = 0;
    region.size = approxBlocks * blockBytes;
    region.type = ElemType::F32;
    region.minValue = 0.0;
    region.maxValue = 1.0;
    region.name = "diff";
    registry.add(region);
    mem.routeApprox(region.base, region.size);

    registerBuiltinLlcs();
    LlcBuilt built = buildLlc(org, mem, registry, cfg, statReg);
    LastLevelCache &llc = *built.llc;

    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<QorGuardrail> guard;
    if (cfg.fault.enabled() || cfg.memTier.anyFaultRate()) {
        injector = std::make_unique<FaultInjector>(cfg.fault);
        injector->registerStats(statReg.group("fault"));
    }
    if (cfg.qor.enabled()) {
        guard = std::make_unique<QorGuardrail>(cfg.qor);
        guard->registerStats(statReg.group("qor"));
    }
    if (injector && cfg.memTier.enabled()) {
        mem.setFaultInjector(injector.get());
        QorGuardrail *g = guard.get();
        mem.onBitFlip = [g, &registry](Addr addr, u8 *block, u32 bit,
                                       u32) {
            const ApproxRegion *r = g ? registry.find(addr) : nullptr;
            if (!r)
                return;
            const unsigned elem = bit / elemBits(r->type);
            const double after = blockElement(block, r->type, elem);
            block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
            const double before = blockElement(block, r->type, elem);
            block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
            g->observeError(flipError(before, after, *r));
        };
    }
    if (guard && cfg.memTier.enabled() && cfg.qor.migrateFactor > 0.0) {
        guard->onMigrate = [&mem](bool migrate) {
            if (migrate)
                mem.migrateApproxToPrecise();
            else
                mem.restoreApproxRoutes();
        };
    }
    if (injector) {
        llc.setFaultInjector(injector.get());
        if (cfg.fault.memoryRate > 0.0 && !cfg.memTier.enabled()) {
            FaultInjector *fi = injector.get();
            QorGuardrail *g = guard.get();
            mem.faultHook = [fi, g, &registry](Addr addr, u8 *block) {
                const ApproxRegion *r = registry.find(addr);
                if (!r || !fi->draw(FaultDomain::MemoryData))
                    return;
                const u32 bit = static_cast<u32>(fi->pick(blockBytes * 8));
                const unsigned elem = bit / elemBits(r->type);
                const double before = blockElement(block, r->type, elem);
                block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
                const double after = blockElement(block, r->type, elem);
                fi->record(FaultDomain::MemoryData, addr, 0, bit);
                if (g)
                    g->observeError(flipError(before, after, *r));
            };
        }
    }
    if (guard)
        llc.setGuardrail(guard.get());

    // Identical initial contents: in-range F32 values in the annotated
    // region, arbitrary bytes in the precise one.
    {
        Rng fill(0x5EED0000 ^ opt.seed);
        BlockData block;
        for (u64 b = 0; b < approxBlocks; ++b) {
            for (unsigned e = 0; e < elemsPerBlock(ElemType::F32); ++e)
                setBlockElement(block.data(), ElemType::F32, e,
                                fill.below(1000) / 1000.0);
            mem.poke(b * blockBytes, block.data(), blockBytes);
        }
        for (u64 b = 0; b < preciseBlocks; ++b) {
            for (u8 &byte : block)
                byte = static_cast<u8>(fill.next());
            mem.poke(preciseBase + b * blockBytes, block.data(),
                     blockBytes);
        }
    }

    Outcome out;
    ClassifyingLlc front(mem, llc, statReg, out.backInvals);
    std::unique_ptr<MemorySystem> fast;
    std::unique_ptr<RefMemorySystem> ref;
    if (reference)
        ref = std::make_unique<RefMemorySystem>(HierarchyConfig{}, front,
                                                statReg, "hierarchy");
    else
        fast = std::make_unique<MemorySystem>(HierarchyConfig{}, front,
                                              mem, &statReg, "hierarchy");

    out.trace.reserve(2 * opt.ops);
    auto checkInvariants = [&] {
        if (fast && out.invariantsOk)
            out.invariantsOk = fast->checkInvariants(&out.invariantsWhy);
    };

    // Each core works mostly in its own overlapping window of each
    // region (L2 and LLC evictions, back-invalidations) and sometimes
    // anywhere (sharing: upgrades, remote fetches, invalidations).
    Rng rng(opt.seed);
    for (u64 n = 0; n < opt.ops; ++n) {
        const CoreId core = static_cast<CoreId>(rng.below(cores));
        const bool approx = rng.below(2) == 0;
        const u64 blocks = approx ? approxBlocks : preciseBlocks;
        const u64 window = blocks / cores + 512;
        const u64 block = rng.below(10) < 7
            ? (core * (blocks / cores) + rng.below(window)) % blocks
            : rng.below(blocks);
        const bool write = rng.below(100) < 35;
        unsigned size = 4;
        if (!approx)
            size = 1u << rng.below(4); // 1, 2, 4 or 8 bytes
        const unsigned off =
            static_cast<unsigned>(rng.below(blockBytes / size)) * size;
        const Addr addr =
            (approx ? 0 : preciseBase) + block * blockBytes + off;

        u64 value = 0;
        if (write) {
            if (approx) {
                const float f = static_cast<float>(rng.below(1000) / 1000.0);
                std::memcpy(&value, &f, sizeof(f));
            } else {
                value = rng.next();
            }
        }
        const Tick lat = fast ? fast->access(core, addr, write, size, &value)
                              : ref->access(core, addr, write, size, &value);
        out.trace.push_back(lat);
        out.trace.push_back(write ? 0 : value);

        if ((n + 1) % invariantPeriod == 0)
            checkInvariants();
        if (opt.drainEvery && (n + 1) % opt.drainEvery == 0) {
            fast ? fast->drain() : ref->drain();
            checkInvariants();
        }
    }
    fast ? fast->drain() : ref->drain();
    checkInvariants();

    out.stats = statReg.snapshot();
    std::vector<u8> bytes(approxBlocks * blockBytes);
    mem.peek(0, bytes.data(), bytes.size());
    out.image.assign(bytes.begin(), bytes.end());
    bytes.resize(preciseBlocks * blockBytes);
    mem.peek(preciseBase, bytes.data(), bytes.size());
    out.image.append(bytes.begin(), bytes.end());
    if (injector)
        out.faults = injector->events();
    return out;
}

/** Index of the first differing element, or -1. */
i64
firstMismatch(const std::vector<u64> &a, const std::vector<u64> &b)
{
    const size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return static_cast<i64>(i);
    }
    return a.size() == b.size() ? -1 : static_cast<i64>(n);
}

/** Run @p org on both hierarchies and assert bit-identical outcomes.
 * @return the optimized run's outcome, for coverage checks. */
Outcome
expectIdentical(const std::string &org, const DiffOpts &opt)
{
    SCOPED_TRACE(org);
    const Outcome ref = runStack(org, true, opt);
    const Outcome fast = runStack(org, false, opt);

    EXPECT_TRUE(fast.invariantsOk) << fast.invariantsWhy;
    const i64 at = firstMismatch(ref.trace, fast.trace);
    EXPECT_EQ(at, -1) << "access " << at / 2 << " differs in its "
                      << (at % 2 ? "loaded data" : "latency");
    EXPECT_TRUE(ref.stats == fast.stats)
        << "reference snapshot:\n" << ref.stats.json()
        << "\noptimized snapshot:\n" << fast.stats.json();
    EXPECT_TRUE(ref.image == fast.image) << "final memory images differ";
    EXPECT_TRUE(ref.backInvals == fast.backInvals)
        << "back-invalidations classify differently";

    EXPECT_EQ(ref.faults.size(), fast.faults.size());
    const size_t n = std::min(ref.faults.size(), fast.faults.size());
    for (size_t i = 0; i < n; ++i) {
        const FaultEvent &a = ref.faults[i];
        const FaultEvent &b = fast.faults[i];
        if (a.op != b.op || a.domain != b.domain || a.entry != b.entry ||
            a.field != b.field || a.bit != b.bit) {
            ADD_FAILURE() << "fault event " << i << " differs";
            break;
        }
    }
    return fast;
}

/** All registered organizations, in registration order. */
std::vector<std::string>
allOrgs()
{
    registerBuiltinLlcs();
    return registeredLlcNames();
}

void
expectAllIdentical(const DiffOpts &opt)
{
    const std::vector<std::string> orgs = allOrgs();
    ASSERT_EQ(orgs.size(), 8u);
    for (const std::string &org : orgs)
        expectIdentical(org, opt);
}

} // namespace

TEST(HierarchyDiff, CleanBitIdentical)
{
    expectAllIdentical(DiffOpts{});
}

TEST(HierarchyDiff, FaultedBitIdentical)
{
    DiffOpts opt;
    opt.variant = Variant::Faulted;
    opt.ops = 25000;
    expectAllIdentical(opt);
}

TEST(HierarchyDiff, GuardrailedBitIdentical)
{
    DiffOpts opt;
    opt.variant = Variant::Guardrailed;
    opt.ops = 25000;
    expectAllIdentical(opt);
}

TEST(HierarchyDiff, TieredBitIdentical)
{
    DiffOpts opt;
    opt.variant = Variant::Tiered;
    opt.ops = 25000;
    expectAllIdentical(opt);
}

TEST(HierarchyDiff, FourSlicesBitIdentical)
{
    DiffOpts opt;
    opt.variant = Variant::FourSlices;
    opt.ops = 25000;
    expectAllIdentical(opt);
}

TEST(HierarchyDiff, SmallLlcSecondSeedBitIdentical)
{
    // A 64 KB LLC under a 640 KB footprint: nearly every fill evicts,
    // so back-invalidations land mid-fill and mid-drain.
    DiffOpts opt;
    opt.ops = 25000;
    opt.seed = 0xA5A5F00D;
    opt.baselineBytes = 64 * 1024;
    opt.drainEvery = 9000;
    expectAllIdentical(opt);
}

TEST(HierarchyDiff, StreamExercisesEveryPath)
{
    // The stream is only a useful oracle if it reaches every
    // hierarchy path; pin that it does.
    const Outcome out = expectIdentical("baseline", DiffOpts{});
    for (const char *name :
         {"hierarchy.l1.hits", "hierarchy.l2.hits", "hierarchy.l2.misses",
          "hierarchy.upgrades", "hierarchy.remoteFetches",
          "hierarchy.invalidationsSent", "mem.reads", "mem.writes"})
        EXPECT_GT(out.stats.counter(name), 0u) << name;

    // Back-invalidation visits only the directory's sharers (DESIGN.md
    // §18): reach a block with no sharer, one shared clean by several
    // cores and one with a dirty owner, on the baseline LLC and on
    // Doppelgänger, whose data-entry evictions back-invalidate every
    // tag that shares the entry.
    for (const char *org : {"baseline", "split-doppelganger"}) {
        const BackInvalKinds k = expectIdentical(org, DiffOpts{}).backInvals;
        EXPECT_GT(k.noCopy, 0u) << org;
        EXPECT_GT(k.cleanShared, 0u) << org;
        EXPECT_GT(k.dirtyOwner, 0u) << org;
    }
}

TEST(HierarchyDiff, FaultedRunsInjectFaults)
{
    DiffOpts opt;
    opt.variant = Variant::Tiered;
    opt.ops = 25000;
    EXPECT_FALSE(runStack("split-doppelganger", false, opt).faults.empty());
    opt.variant = Variant::Faulted;
    EXPECT_FALSE(runStack("split-doppelganger", false, opt).faults.empty());
}

TEST(HierarchyInvariants, CheckerCatchesLostBackInvalidation)
{
    // Detach the hierarchy's back-invalidation hook: LLC evictions then
    // leave stale private copies behind, which the checker must flag.
    MainMemory mem;
    RunConfig cfg;
    cfg.baselineBytes = 64 * 1024;
    ApproxRegistry registry;
    StatRegistry statReg;
    registerBuiltinLlcs();
    LlcBuilt built = buildLlc("baseline", mem, registry, cfg, statReg);
    MemorySystem sys(HierarchyConfig{}, *built.llc, mem);
    std::string why;
    u32 v = 0;
    for (u32 i = 0; i < 512; ++i)
        sys.access(0, i * blockBytes, false, 4, &v);
    EXPECT_TRUE(sys.checkInvariants(&why)) << why;

    built.llc->setBackInvalidate([](Addr, u8 *) { return false; });
    for (u32 i = 512; i < 8192; ++i)
        sys.access(1, i * blockBytes, false, 4, &v);
    EXPECT_FALSE(sys.checkInvariants(&why));
    EXPECT_NE(why.find("LLC"), std::string::npos) << why;
}

} // namespace dopp
