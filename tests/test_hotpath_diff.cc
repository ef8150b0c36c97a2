/**
 * @file
 * Differential hot-path harness: the optimized structure-of-arrays
 * Doppelgänger engine (core/doppelganger_cache.hh) must be
 * bit-identical to the frozen reference implementation
 * (doppelganger_ref.hh) — same StatRegistry snapshot, same final
 * cache contents, same fault trace — for any access sequence. Every
 * organization that wraps the engine is compared against its ".ref"
 * twin, which differs only in the engine it builds. The HotpathDiff
 * tests drive both with the same seeded randomized operation stream
 * and assert exact equality, including under fault injection and an
 * active QoR guardrail; RefEngineEndToEnd runs the Fig 12 sweep's
 * configurations through runWorkload on both.
 *
 * Also hosts the property-based invariant fuzzer for the index-pooled
 * tag lists (TagPool*): checkInvariants() after every mutation, with
 * and without metadata fault injection, plus the targeted
 * flipped-index-bit detect-and-repair test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "doppelganger_ref.hh"
#include "fault/fault_injector.hh"
#include "fault/qor_guardrail.hh"
#include "harness/batch_runner.hh"
#include "harness/experiment.hh"
#include "harness/llc_factory.hh"
#include "harness/results_io.hh"
#include "util/random.hh"
#include "workloads/workload.hh"

namespace dopp
{

namespace
{

/** Shape of one differential run. */
struct DiffOpts
{
    u64 ops = 100000;          ///< operations in the access stream
    u64 seed = 0xD1FF5EED;     ///< op-stream seed
    u64 baselineBytes = 256 * 1024; ///< LLC geometry (Table 1 knob)
    u64 footprintBlocks = 4096;    ///< addresses the stream touches
    FaultConfig fault;         ///< all-zero: no injector attached
    QorConfig qor;             ///< budget zero: no guardrail attached
};

/**
 * Stateless back-invalidate hook: a pure function of the address, so
 * both engines observe the exact same private-cache behaviour. Every
 * third block reports a dirty private copy whose bytes are derived
 * from the address alone.
 */
bool
statelessBackInvalidate(Addr addr, u8 *data)
{
    const u64 blk = addr / blockBytes;
    if (blk % 3 != 0)
        return false;
    u64 h = blk * 0x9E3779B97F4A7C15ULL + 1;
    for (unsigned i = 0; i < blockBytes; ++i) {
        h ^= h >> 33;
        h *= 0xFF51AFD7ED558CCDULL;
        data[i] = static_cast<u8>(h >> 56);
    }
    return true;
}

/** Deterministically seed @p mem with in-range F32 blocks. */
void
seedMemory(MainMemory &mem, u64 footprint_blocks)
{
    Rng rng(0xBEEF5EED);
    BlockData block;
    for (u64 b = 0; b < footprint_blocks; ++b) {
        for (unsigned e = 0; e < elemsPerBlock(ElemType::F32); ++e) {
            setBlockElement(block.data(), ElemType::F32, e,
                            rng.below(1000) / 1000.0);
        }
        mem.writeBlock(b * blockBytes, block.data());
    }
}

/**
 * Serialize the LLC's full contents, sorted by address: every byte of
 * every resident block plus its dirty/approx annotations. Equality of
 * two dumps is final-contents bit-identity.
 */
std::string
dumpContents(const LastLevelCache &llc)
{
    std::vector<LlcBlockInfo> infos;
    std::vector<BlockData> bytes;
    llc.forEachBlock([&](const LlcBlockInfo &info) {
        infos.push_back(info);
        BlockData copy;
        std::memcpy(copy.data(), info.data, blockBytes);
        bytes.push_back(copy);
    });

    std::vector<size_t> order(infos.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return infos[a].addr < infos[b].addr;
    });

    std::string out;
    out.reserve(infos.size() * (blockBytes * 2 + 32));
    char buf[32];
    for (size_t i : order) {
        const LlcBlockInfo &info = infos[i];
        std::snprintf(buf, sizeof(buf), "%llx d%d a%d t%d:",
                      static_cast<unsigned long long>(info.addr),
                      info.dirty ? 1 : 0, info.approx ? 1 : 0,
                      static_cast<int>(info.type));
        out += buf;
        for (u8 byte : bytes[i]) {
            std::snprintf(buf, sizeof(buf), "%02x", byte);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

/** One engine's observable outcome for a run. */
struct DiffResult
{
    StatSnapshot stats;
    std::string contents;
    std::vector<FaultEvent> faultTrace;
    bool invariantsOk = true;
    std::string invariantsWhy;
};

/**
 * Build organization @p org, or its ".ref" twin when @p reference is
 * set, and drive it with the DiffOpts-seeded randomized stream: a fetch/
 * writeback/contains mix with occasional full flushes, over a
 * footprint whose lower half is an annotated F32 region (upper half
 * takes the precise paths).
 */
DiffResult
runOne(const std::string &org, bool reference, const DiffOpts &opt)
{
    MainMemory mem;
    seedMemory(mem, opt.footprintBlocks);

    ApproxRegistry registry;
    ApproxRegion region;
    region.base = 0;
    region.size = (opt.footprintBlocks / 2) * blockBytes;
    region.type = ElemType::F32;
    region.minValue = 0.0;
    region.maxValue = 1.0;
    region.name = "diff";
    registry.add(region);

    RunConfig cfg;
    cfg.workloadName = "hotpath-diff";
    cfg.baselineBytes = opt.baselineBytes;

    StatRegistry statReg;
    registerRefLlcs();
    LlcBuilt built = buildLlc(reference ? org + ".ref" : org, mem,
                              registry, cfg, statReg);
    LastLevelCache *llc = built.llc.get();
    llc->setBackInvalidate(statelessBackInvalidate);

    FaultInjector injector(opt.fault);
    if (opt.fault.enabled()) {
        injector.registerStats(statReg.group("fault"));
        llc->setFaultInjector(&injector);
    }
    QorGuardrail guard(opt.qor);
    if (opt.qor.enabled()) {
        guard.registerStats(statReg.group("qor"));
        llc->setGuardrail(&guard);
    }

    Rng rng(opt.seed);
    BlockData buf = {};
    for (u64 n = 0; n < opt.ops; ++n) {
        const Addr addr =
            rng.below(opt.footprintBlocks) * blockBytes;
        const u64 roll = rng.below(1000);
        if (roll < 550) {
            llc->fetch(addr, buf.data());
        } else if (roll < 900) {
            setBlockElement(buf.data(), ElemType::F32,
                            static_cast<unsigned>(n % 16),
                            rng.below(1000) / 1000.0);
            llc->writeback(addr, buf.data());
        } else if (roll < 998) {
            (void)llc->contains(addr);
        } else {
            llc->flush();
        }
    }

    DiffResult r;
    r.stats = statReg.snapshot();
    r.contents = dumpContents(*llc);
    if (opt.fault.enabled())
        r.faultTrace = injector.events();
    for (const DoppEngine *d : built.dopps) {
        if (r.invariantsOk)
            r.invariantsOk = d->checkInvariants(&r.invariantsWhy);
    }
    return r;
}

/** Assert reference and optimized outcomes are bit-identical. */
void
expectIdentical(const std::string &org, const DiffOpts &opt)
{
    SCOPED_TRACE(org);
    const DiffResult ref = runOne(org, true, opt);
    const DiffResult fast = runOne(org, false, opt);

    EXPECT_TRUE(ref.invariantsOk) << ref.invariantsWhy;
    EXPECT_TRUE(fast.invariantsOk) << fast.invariantsWhy;
    EXPECT_TRUE(ref.stats == fast.stats)
        << "reference snapshot:\n" << ref.stats.json()
        << "\noptimized snapshot:\n" << fast.stats.json();
    EXPECT_EQ(ref.contents, fast.contents);

    ASSERT_EQ(ref.faultTrace.size(), fast.faultTrace.size());
    for (size_t i = 0; i < ref.faultTrace.size(); ++i) {
        const FaultEvent &a = ref.faultTrace[i];
        const FaultEvent &b = fast.faultTrace[i];
        EXPECT_EQ(a.op, b.op) << "fault event " << i;
        EXPECT_EQ(a.domain, b.domain) << "fault event " << i;
        EXPECT_EQ(a.entry, b.entry) << "fault event " << i;
        EXPECT_EQ(a.field, b.field) << "fault event " << i;
        EXPECT_EQ(a.bit, b.bit) << "fault event " << i;
    }
}

/** The organizations with a ".ref" twin, in registration order. */
std::vector<std::string>
allOrgs()
{
    registerRefLlcs();
    std::vector<std::string> orgs;
    for (const std::string &name : registeredLlcNames()) {
        if (llcRegistered(name + ".ref"))
            orgs.push_back(name);
    }
    EXPECT_EQ(orgs.size(), 5u);
    return orgs;
}

/** Small engine geometry for the pool fuzzer (64 tags, 16 data). */
DoppConfig
fuzzConfig(bool unified)
{
    DoppConfig cfg;
    cfg.tagEntries = 64;
    cfg.tagWays = 16;
    cfg.dataEntries = 16;
    cfg.dataWays = 4;
    cfg.mapBits = 8; // tiny map space: heavy entry sharing
    cfg.unified = unified;
    cfg.defaultType = ElemType::F32;
    cfg.defaultMin = 0.0;
    cfg.defaultMax = 1.0;
    return cfg;
}

/** Fault rates that hammer the tag/MTag metadata. */
FaultConfig
metaFaults(u64 seed, double rate)
{
    FaultConfig fc;
    fc.seed = seed;
    fc.tagMetaRate = rate;
    fc.mtagMetaRate = rate / 2;
    fc.dataRate = rate / 4;
    return fc;
}

/**
 * Drive @p engine with @p ops random operations, asserting the full
 * structural invariants after every single mutation (this is the
 * property-based fuzzer for the index-pooled tag lists: any stale
 * link, dangling index or desynced valid count fails immediately,
 * naming the violation).
 */
void
fuzzPools(DoppEngine &engine, u64 ops, u64 seed)
{
    Rng rng(seed);
    BlockData buf = {};
    std::string why;
    for (u64 n = 0; n < ops; ++n) {
        const Addr addr = rng.below(256) * blockBytes;
        const u64 roll = rng.below(100);
        if (roll < 50) {
            engine.fetch(addr, buf.data());
        } else if (roll < 90) {
            setBlockElement(buf.data(), ElemType::F32,
                            static_cast<unsigned>(n % 16),
                            rng.below(1000) / 1000.0);
            engine.writeback(addr, buf.data());
        } else if (roll < 99) {
            (void)engine.contains(addr);
        } else {
            engine.flush();
        }
        ASSERT_TRUE(engine.checkInvariants(&why))
            << "after op " << n << ": " << why;
    }
}

} // namespace

// ---------------------------------------------------------------------
// Differential suite: reference vs optimized engine, all organizations.
// ---------------------------------------------------------------------

TEST(HotpathDiff, AllOrganizationsBitIdentical)
{
    // >= 100k randomized ops per organization; snapshot, final
    // contents and invariants must match exactly.
    DiffOpts opt;
    opt.ops = 100000;
    for (const std::string &org : allOrgs())
        expectIdentical(org, opt);
}

TEST(HotpathDiff, SecondSeedStaysIdentical)
{
    // A different stream seed (different mix, different flush points)
    // catches order-of-update bugs the first seed happens to miss.
    DiffOpts opt;
    opt.ops = 40000;
    opt.seed = 0xA5A5F00D;
    for (const std::string &org : allOrgs())
        expectIdentical(org, opt);
}

TEST(HotpathDiff, FaultInjectionBitIdentical)
{
    // Metadata + data fault injection: the draw/pick/record sequences,
    // the detection counters and every repair decision must line up
    // event-for-event between the engines. Small geometry keeps the
    // O(tags) self-check per injection cheap.
    DiffOpts opt;
    opt.ops = 20000;
    opt.baselineBytes = 64 * 1024;
    opt.footprintBlocks = 1024;
    opt.fault = metaFaults(0xFA017D1F, 0.002);
    for (const std::string &org : allOrgs())
        expectIdentical(org, opt);

    // The run must actually have exercised the repair path.
    const DiffResult check =
        runOne("split-doppelganger", false, opt);
    EXPECT_FALSE(check.faultTrace.empty());
}

TEST(HotpathDiff, GuardrailBitIdentical)
{
    // Active QoR guardrail on top of fault injection: substitution
    // errors, degraded intervals and re-enable edges must agree.
    DiffOpts opt;
    opt.ops = 20000;
    opt.baselineBytes = 64 * 1024;
    opt.footprintBlocks = 1024;
    opt.fault = metaFaults(0x9A4D, 0.001);
    opt.qor.budget = 0.02;
    opt.qor.window = 128;
    opt.qor.minDwell = 32;
    for (const std::string &org : allOrgs())
        expectIdentical(org, opt);
}

// ---------------------------------------------------------------------
// Property-based fuzzer for the index-pooled tag lists.
// ---------------------------------------------------------------------

TEST(TagPoolFuzz, InvariantsHoldAfterEveryMutation)
{
    MainMemory mem;
    auto engine = makeDoppEngine(mem, fuzzConfig(false), nullptr);
    fuzzPools(*engine, 5000, 0xF0021);
}

TEST(TagPoolFuzz, UnifiedInvariantsHoldAfterEveryMutation)
{
    MainMemory mem;
    ApproxRegistry registry;
    ApproxRegion region;
    region.base = 0;
    region.size = 128 * blockBytes; // half the fuzz address pool
    registry.add(region);

    DoppConfig cfg = fuzzConfig(true);
    auto engine = makeDoppEngine(mem, cfg, &registry);
    fuzzPools(*engine, 5000, 0xF0022);
}

TEST(TagPoolFuzz, InvariantsHoldUnderMetadataFaults)
{
    // With the injector attached every operation may corrupt the
    // index pools; the internal self-check must restore the
    // invariants before the operation returns, every time.
    MainMemory mem;
    auto engine = makeDoppEngine(mem, fuzzConfig(false), nullptr);
    FaultInjector fi(metaFaults(0xFA57, 0.05));
    engine->setFaultInjector(&fi);
    fuzzPools(*engine, 3000, 0xF0023);
    EXPECT_GT(fi.stats().totalInjected(), 50u);
    EXPECT_EQ(fi.stats().detected, fi.stats().repairs);
}

TEST(TagPoolFuzz, FlippedIndexBitIsDetectedAndRepaired)
{
    // Targeted check for the index-based prev/next fields: with only
    // the tag-metadata domain enabled at rate 1.0, every operation
    // flips one bit of one tag's map/prev/next/state fields. A
    // corrupted index must be caught by the self-check and repaired
    // (never dereferenced out of range), and every detection must be
    // followed by a completed repair.
    MainMemory mem;
    auto engine = makeDoppEngine(mem, fuzzConfig(false), nullptr);
    FaultConfig fc;
    fc.seed = 0x1DBEEF;
    fc.tagMetaRate = 1.0;
    FaultInjector fi(fc);
    engine->setFaultInjector(&fi);

    Rng rng(0xF0024);
    BlockData buf = {};
    std::string why;
    for (u64 n = 0; n < 400; ++n) {
        const Addr addr = rng.below(64) * blockBytes;
        if (n % 4 == 3)
            engine->writeback(addr, buf.data());
        else
            engine->fetch(addr, buf.data());
        ASSERT_TRUE(engine->checkInvariants(&why))
            << "after op " << n << ": " << why;
    }

    EXPECT_GT(fi.stats().injected[2], 0u); // TagMeta domain
    EXPECT_GT(fi.stats().detected, 0u);
    EXPECT_EQ(fi.stats().detected, fi.stats().repairs);
    EXPECT_EQ(engine->stats().faultsDetected, fi.stats().detected);
    EXPECT_EQ(engine->stats().faultsRepaired, fi.stats().repairs);
}

TEST(TagPoolFuzz, ReferenceAndOptimizedAgreeUnderFuzz)
{
    // The fuzzer itself is differential: the same seeded stream on
    // both engines must leave identical stats and contents.
    auto run = [](DoppEngineMaker make_engine) {
        MainMemory mem;
        auto engine = make_engine(mem, fuzzConfig(false), nullptr,
                                  nullptr, "llc.dopp");
        fuzzPools(*engine, 4000, 0xF0025);
        LlcStats s = engine->stats();
        return std::make_pair(s.fetchHits + 3 * s.fetchMisses +
                                  5 * s.writebacksIn + 7 * s.mapGens +
                                  11 * s.evictions +
                                  13 * s.dataEvictions,
                              dumpContents(*engine));
    };
    const auto ref = run(makeRefDoppEngine);
    const auto fast = run(makeDoppEngine);
    EXPECT_EQ(ref.first, fast.first);
    EXPECT_EQ(ref.second, fast.second);
}

// ---------------------------------------------------------------------
// End to end: bench_fig12's sweep through runWorkload, X against X.ref.
// ---------------------------------------------------------------------

TEST(RefEngineEndToEnd, Fig12GridMatches)
{
    // Fig 12's engine-backed configurations at scale 0.05, plus
    // uniDoppelganger and dedup so every ".ref" organization runs;
    // each unsliced and over four slices. Runs go through the batch
    // runner, so DOPP_JOBS sets how many run at once.
    struct Point
    {
        const char *org;
        double dataFraction;
    };
    const Point points[] = {
        {"split-doppelganger", 0.5}, {"split-doppelganger", 0.25},
        {"split-doppelganger", 0.125}, {"uniDoppBdi", 0.25},
        {"approxDedup", 0.25}, {"uniDoppelganger", 0.25},
        {"dedup", 0.25},
    };
    registerRefLlcs();
    std::vector<RunConfig> configs;
    for (const std::string &kernel : workloadNames()) {
        for (const Point &p : points) {
            for (u32 slices : {0u, 4u}) {
                for (const char *suffix : {"", ".ref"}) {
                    RunConfig cfg;
                    cfg.workloadName = kernel;
                    cfg.llcName = std::string(p.org) + suffix;
                    cfg.dataFraction = p.dataFraction;
                    cfg.sliceCount = slices;
                    cfg.workload.scale = 0.05;
                    configs.push_back(cfg);
                }
            }
        }
    }
    const std::vector<RunResult> results = runBatch(configs);
    ASSERT_EQ(results.size(), configs.size());
    for (size_t i = 0; i < results.size(); i += 2) {
        const RunConfig &cfg = configs[i];
        SCOPED_TRACE(cfg.workloadName + " " + cfg.llcName + " @" +
                     std::to_string(cfg.dataFraction) + " slices " +
                     std::to_string(cfg.sliceCount));
        const RunResult &fast = results[i];
        RunResult ref = results[i + 1];
        ASSERT_FALSE(fast.failed) << fast.error;
        ASSERT_FALSE(ref.failed) << ref.error;
        EXPECT_TRUE(fast.stats == ref.stats)
            << "optimized snapshot:\n" << fast.stats.json()
            << "\nreference snapshot:\n" << ref.stats.json();
        EXPECT_EQ(fast.output, ref.output);
        EXPECT_EQ(ref.organization, cfg.llcName + ".ref");
        ref.organization = fast.organization;
        EXPECT_EQ(runResultCsvRow(fast), runResultCsvRow(ref));
    }
}

} // namespace dopp
