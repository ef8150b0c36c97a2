/**
 * @file
 * Tests for the fault-injection and QoR-guardrail subsystem: injector
 * determinism, the guardrail state machine, substitution-error math,
 * metadata-fault survival (self-check-and-repair) under randomized
 * stress, split-LLC degradation routing, and end-to-end campaign
 * reproducibility through the harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "core/doppelganger_cache.hh"
#include "core/split_llc.hh"
#include "fault/fault_injector.hh"
#include "fault/qor_guardrail.hh"
#include "harness/experiment.hh"
#include "util/random.hh"

namespace dopp
{

namespace
{

/** Small test geometry: 64 tags (4 sets x 16), 16 data entries. */
DoppConfig
smallConfig()
{
    DoppConfig cfg;
    cfg.tagEntries = 64;
    cfg.tagWays = 16;
    cfg.dataEntries = 16;
    cfg.dataWays = 4;
    cfg.mapBits = 14;
    return cfg;
}

BlockData
makeBlock(float value)
{
    BlockData b;
    for (unsigned i = 0; i < elemsPerBlock(ElemType::F32); ++i)
        setBlockElement(b.data(), ElemType::F32, i,
                        static_cast<double>(value));
    return b;
}

void
seedBlock(MainMemory &mem, Addr addr, float value)
{
    const BlockData b = makeBlock(value);
    mem.poke(addr, b.data(), blockBytes);
}

FaultConfig
metaFaultConfig(u64 seed)
{
    FaultConfig f;
    f.seed = seed;
    f.dataRate = 0.05;
    f.tagMetaRate = 0.10;
    f.mtagMetaRate = 0.10;
    return f;
}

/**
 * Drive @p cache with @p ops interleaved fetches, writebacks and
 * periodic flushes over a small address pool, checking the structural
 * invariants after every single operation (so the repair path must
 * leave the cache consistent every time it runs).
 */
void
stressCache(DoppelgangerCache &cache, MainMemory &mem, u64 ops,
            u64 rng_seed)
{
    Rng rng(rng_seed);
    BlockData buf;
    std::string why;
    for (u64 i = 0; i < ops; ++i) {
        const Addr addr = (rng.below(256) + 1) * 0x40;
        const float value =
            static_cast<float>(rng.uniform());
        switch (rng.below(8)) {
          case 0:
            if (i % 512 == 511) {
                cache.flush();
                break;
            }
            [[fallthrough]];
          case 1:
          case 2:
            cache.writeback(addr, makeBlock(value).data());
            break;
          default:
            seedBlock(mem, addr, value);
            cache.fetch(addr, buf.data());
            break;
        }
        ASSERT_TRUE(cache.checkInvariants(&why))
            << "op " << i << ": " << why;
    }
}

} // namespace

TEST(FaultInjector, DeterministicStreams)
{
    FaultConfig cfg = metaFaultConfig(42);
    FaultInjector a(cfg);
    FaultInjector b(cfg);
    for (int i = 0; i < 2000; ++i) {
        a.step();
        b.step();
        ASSERT_EQ(a.draw(FaultDomain::TagMeta),
                  b.draw(FaultDomain::TagMeta));
        ASSERT_EQ(a.pick(64), b.pick(64));
        ASSERT_EQ(a.draw(FaultDomain::LlcData),
                  b.draw(FaultDomain::LlcData));
    }
}

TEST(FaultInjector, ZeroRatesNeverFire)
{
    FaultInjector fi(FaultConfig{});
    EXPECT_FALSE(fi.config().enabled());
    for (int i = 0; i < 1000; ++i) {
        fi.step();
        EXPECT_FALSE(fi.draw(FaultDomain::MemoryData));
        EXPECT_FALSE(fi.draw(FaultDomain::TagMeta));
    }
    EXPECT_EQ(fi.stats().totalInjected(), 0u);
}

TEST(FaultInjector, RecordsTallyPerDomain)
{
    FaultInjector fi(metaFaultConfig(7));
    fi.record(FaultDomain::TagMeta, 3, 1, 0);
    fi.record(FaultDomain::TagMeta, 5, 0, 2);
    fi.record(FaultDomain::MemoryData, 0x1000, 0, 17);
    EXPECT_EQ(fi.stats().injected[static_cast<size_t>(
                  FaultDomain::TagMeta)], 2u);
    EXPECT_EQ(fi.stats().injected[static_cast<size_t>(
                  FaultDomain::MemoryData)], 1u);
    EXPECT_EQ(fi.stats().totalInjected(), 3u);
    ASSERT_EQ(fi.events().size(), 3u);
    EXPECT_EQ(fi.events()[1].entry, 5u);
    EXPECT_EQ(fi.events()[2].bit, 17u);
}

TEST(QorGuardrail, TripsDegradesAndRecovers)
{
    QorConfig qc;
    qc.budget = 0.1;
    qc.window = 4;
    qc.minDwell = 4;
    qc.reenableFraction = 0.5;
    QorGuardrail g(qc);

    // Saturate the estimate with full-range substitutions.
    for (int i = 0; i < 16; ++i)
        g.observeError(1.0);
    EXPECT_TRUE(g.degraded());
    EXPECT_EQ(g.degradationCount(), 1u);
    EXPECT_GT(g.estimate(), qc.budget);

    // Clean operation decays the estimate below the hysteresis
    // threshold and lifts the degradation after the dwell.
    for (int i = 0; i < 64; ++i)
        g.observeClean();
    EXPECT_FALSE(g.degraded());
    EXPECT_LT(g.estimate(), qc.budget * qc.reenableFraction);

    const auto ivs = g.intervals();
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_GT(ivs[0].endOp, ivs[0].beginOp);
    EXPECT_EQ(g.degradedOps(), ivs[0].endOp - ivs[0].beginOp);
}

TEST(QorGuardrail, MinDwellPreventsChatter)
{
    QorConfig qc;
    qc.budget = 0.1;
    qc.window = 1; // estimate == last sample: maximally chatter-prone
    qc.minDwell = 10;
    QorGuardrail g(qc);

    // Alternate wildly; flips must respect the dwell.
    for (int i = 0; i < 100; ++i)
        g.observeError(i % 2 ? 1.0 : 0.0);
    u64 maxFlips = 100 / qc.minDwell + 1;
    EXPECT_LE(g.degradationCount(), maxFlips);
    EXPECT_GE(g.degradationCount(), 1u);
}

TEST(QorGuardrail, DisabledNeverDegrades)
{
    QorGuardrail g(QorConfig{});
    for (int i = 0; i < 1000; ++i)
        g.observeError(1.0);
    EXPECT_FALSE(g.degraded());
    EXPECT_EQ(g.observations(), 0u);
    EXPECT_EQ(g.degradedOps(), 0u);
}

TEST(QorGuardrail, ReenableEdgeIsExclusive)
{
    // Re-enable requires the estimate strictly *below* the hysteresis
    // threshold; decaying to exactly the threshold must keep the
    // guardrail degraded. Power-of-two budget/samples keep the window=1
    // EWMA updates exact, so the edge is hit bit-precisely.
    QorConfig qc;
    qc.budget = 0.25;
    qc.reenableFraction = 0.5; // threshold: exactly 0.125
    qc.window = 1;             // estimate == last sample
    qc.minDwell = 1;
    QorGuardrail g(qc);

    g.observeError(1.0);
    ASSERT_TRUE(g.degraded());
    ASSERT_EQ(g.degradationCount(), 1u);

    g.observeError(0.125); // exactly budget × reenableFraction
    EXPECT_EQ(g.estimate(), 0.125);
    EXPECT_TRUE(g.degraded()) << "re-enabled at the threshold itself";

    g.observeError(0.0625); // strictly below: now it lifts
    EXPECT_FALSE(g.degraded());
    const auto ivs = g.intervals();
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].beginOp, 1u);
    EXPECT_EQ(ivs[0].endOp, 3u);
}

TEST(QorGuardrail, BudgetZeroIsInertEwma)
{
    // budget == 0 disables the guardrail entirely: the EWMA must not
    // accumulate, and no intervals may ever open.
    QorConfig qc;
    qc.budget = 0.0;
    qc.window = 4;
    QorGuardrail g(qc);
    for (int i = 0; i < 256; ++i)
        g.observeError(0.7);
    EXPECT_EQ(g.estimate(), 0.0);
    EXPECT_EQ(g.observations(), 0u);
    EXPECT_FALSE(g.degraded());
    EXPECT_TRUE(g.intervals().empty());
    EXPECT_EQ(g.degradationCount(), 0u);
}

TEST(QorGuardrail, ZeroWindowActsAsLastSample)
{
    // window == 0 must not divide by zero; it clamps to alpha = 1, so
    // the estimate tracks the most recent observation exactly.
    QorConfig qc;
    qc.budget = 0.1;
    qc.window = 0;
    qc.minDwell = 1;
    QorGuardrail g(qc);
    g.observeError(0.75);
    EXPECT_EQ(g.estimate(), 0.75);
    EXPECT_TRUE(g.degraded());
    g.observeClean();
    EXPECT_EQ(g.estimate(), 0.0);
    EXPECT_FALSE(g.degraded());
}

TEST(BlockSubstitutionError, IdenticalBlocksAreClean)
{
    const BlockData a = makeBlock(0.7f);
    EXPECT_DOUBLE_EQ(blockSubstitutionError(a.data(), a.data(),
                                            ElemType::F32, 1.0),
                     0.0);
}

TEST(BlockSubstitutionError, NormalizedToSpanAndCapped)
{
    BlockData served = makeBlock(0.0f);
    BlockData exact = makeBlock(0.0f);
    // One element off by the full span: mean error = 1/elems.
    setBlockElement(served.data(), ElemType::F32, 0, 1.0);
    const unsigned elems = elemsPerBlock(ElemType::F32);
    EXPECT_NEAR(blockSubstitutionError(served.data(), exact.data(),
                                       ElemType::F32, 1.0),
                1.0 / elems, 1e-9);
    // A wild element (1000 spans off) is capped at one full-range
    // substitution, and a degenerate span cannot divide by zero.
    setBlockElement(served.data(), ElemType::F32, 0, 1000.0);
    EXPECT_NEAR(blockSubstitutionError(served.data(), exact.data(),
                                       ElemType::F32, 1.0),
                1.0 / elems, 1e-9);
    EXPECT_LE(blockSubstitutionError(served.data(), exact.data(),
                                     ElemType::F32, 0.0),
              1.0);
}

namespace
{

/** The element-by-element substitution error through blockElement,
 * kept as the model the typed kernel must match bit for bit. */
double
elementwiseSubstitutionError(const u8 *served, const u8 *exact,
                             ElemType elem_type, double span)
{
    const unsigned n = elemsPerBlock(elem_type);
    const double width = std::max(span, 1e-30);
    double sum = 0.0;
    for (unsigned i = 0; i < n; ++i) {
        const double a = blockElement(served, elem_type, i);
        const double p = blockElement(exact, elem_type, i);
        double err = std::abs(a - p) / width;
        if (!std::isfinite(err) || err > 1.0)
            err = 1.0;
        sum += err;
    }
    return sum / static_cast<double>(n);
}

/** Bit patterns at the edges of each element width: zeros, all-ones,
 * sign boundaries and, read as IEEE floats, NaNs, infinities,
 * denormals and the largest finite values. */
std::vector<u64>
edgePatterns(unsigned bytes)
{
    if (bytes == 8) {
        return {0x0000000000000000ULL, 0x8000000000000000ULL,
                0x7ff0000000000000ULL, 0xfff0000000000000ULL,
                0x7ff8000000000000ULL, 0xfff8000000000001ULL,
                0x7ff0000000000001ULL, 0x0000000000000001ULL,
                0x800fffffffffffffULL, 0x7fefffffffffffffULL,
                0xffefffffffffffffULL, 0x3ff0000000000000ULL,
                0xbff0000000000000ULL, 0x7fffffffffffffffULL,
                0xffffffffffffffffULL};
    }
    if (bytes == 4) {
        return {0x00000000, 0x80000000, 0x7f800000, 0xff800000,
                0x7fc00000, 0xffc00001, 0x7f800001, 0x00000001,
                0x807fffff, 0x7f7fffff, 0xff7fffff, 0x3f800000,
                0xbf800000, 0x7fffffff, 0xffffffff};
    }
    if (bytes == 2)
        return {0x0000, 0x8000, 0x7fff, 0xffff, 0x0001};
    return {0x00, 0x80, 0x7f, 0xff, 0x01};
}

} // namespace

TEST(BlockSubstitutionError, TypedKernelMatchesElementwise)
{
    // Seeded random block pairs of every element type: raw random bits,
    // edge patterns, and elements shared between the two blocks, over
    // spans that include 0 and negatives (the 1e-30 floor), tiny,
    // ordinary and huge ranges. Results must match bit for bit.
    const ElemType types[] = {ElemType::U8, ElemType::I16, ElemType::I32,
                              ElemType::F32, ElemType::F64};
    const double spans[] = {0.0, -1.0, 1e-300, 1e-30, 1.0,
                            255.0, 4000.0, 65535.0, 1e30};
    Rng rng(0x5B57E);
    u64 compared = 0;
    for (const ElemType type : types) {
        const unsigned size = elemSize(type);
        const std::vector<u64> edges = edgePatterns(size);
        auto element = [&]() -> u64 {
            return rng.below(2) ? rng.next()
                                : edges[rng.below(edges.size())];
        };
        for (unsigned trial = 0; trial < 20000; ++trial) {
            BlockData served;
            BlockData exact;
            for (unsigned e = 0; e < elemsPerBlock(type); ++e) {
                const u64 a = element();
                const u64 p = rng.below(4) == 0 ? a : element();
                std::memcpy(served.data() + e * size, &a, size);
                std::memcpy(exact.data() + e * size, &p, size);
            }
            const double span = trial % 3 == 0
                ? spans[rng.below(std::size(spans))]
                : static_cast<double>(rng.below(1u << 20)) / 64.0;
            const double want = elementwiseSubstitutionError(
                served.data(), exact.data(), type, span);
            const double got = blockSubstitutionError(
                served.data(), exact.data(), type, span);
            ASSERT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
                << elemTypeName(type) << " trial " << trial << ": "
                << got << " vs model " << want;
            ++compared;
        }
    }
    EXPECT_EQ(compared, 100000u);
}

TEST(FaultStress, DoppelgangerSurvivesMetadataFaults)
{
    MainMemory mem;
    DoppelgangerCache cache(mem, smallConfig(), nullptr);
    FaultInjector fi(metaFaultConfig(0xfa017));
    cache.setFaultInjector(&fi);

    stressCache(cache, mem, 3000, 99);

    // The rates guarantee plenty of injections; every detected
    // corruption must have been repaired.
    EXPECT_GT(fi.stats().totalInjected(), 100u);
    EXPECT_GT(fi.stats().detected, 0u);
    EXPECT_EQ(fi.stats().detected, fi.stats().repairs);
    EXPECT_EQ(cache.stats().faultsDetected, fi.stats().detected);
    EXPECT_EQ(cache.stats().faultsRepaired, fi.stats().repairs);
    EXPECT_EQ(cache.stats().repairTagsDropped,
              fi.stats().tagsDropped);
    EXPECT_EQ(cache.stats().repairEntriesDropped,
              fi.stats().entriesDropped);
}

TEST(FaultStress, UnifiedSurvivesMetadataFaults)
{
    MainMemory mem;
    ApproxRegistry registry;
    ApproxRegion region;
    region.base = 0x0;
    region.size = 128 * 0x40; // half the stress address pool
    registry.add(region);

    DoppConfig cfg = smallConfig();
    cfg.unified = true;
    DoppelgangerCache cache(mem, cfg, &registry);
    FaultInjector fi(metaFaultConfig(0xdecaf));
    cache.setFaultInjector(&fi);

    stressCache(cache, mem, 3000, 123);

    EXPECT_GT(fi.stats().totalInjected(), 100u);
    EXPECT_GT(fi.stats().detected, 0u);
    EXPECT_EQ(fi.stats().detected, fi.stats().repairs);
}

TEST(FaultStress, SameSeedSameFaultTrace)
{
    auto run = [](std::vector<FaultEvent> &events, LlcStats &stats) {
        MainMemory mem;
        DoppelgangerCache cache(mem, smallConfig(), nullptr);
        FaultInjector fi(metaFaultConfig(0x5eed));
        cache.setFaultInjector(&fi);
        stressCache(cache, mem, 1500, 7);
        events = fi.events();
        stats = cache.stats();
    };

    std::vector<FaultEvent> ea;
    std::vector<FaultEvent> eb;
    LlcStats sa;
    LlcStats sb;
    run(ea, sa);
    run(eb, sb);

    ASSERT_EQ(ea.size(), eb.size());
    ASSERT_GT(ea.size(), 0u);
    for (size_t i = 0; i < ea.size(); ++i) {
        EXPECT_EQ(ea[i].op, eb[i].op);
        EXPECT_EQ(ea[i].domain, eb[i].domain);
        EXPECT_EQ(ea[i].entry, eb[i].entry);
        EXPECT_EQ(ea[i].field, eb[i].field);
        EXPECT_EQ(ea[i].bit, eb[i].bit);
    }
    for (const LlcStatField &f : llcStatFields())
        EXPECT_EQ(f.value(sa), f.value(sb)) << f.name;
}

TEST(FaultStress, ConventionalLlcFlipsOnlyApproxData)
{
    MainMemory mem;
    ApproxRegistry registry;
    ApproxRegion region;
    region.base = 0x10000;
    region.size = 64 * 0x40;
    registry.add(region);

    ConventionalLlc llc(mem, 64 * blockBytes, 4, 6, &registry);
    FaultConfig fc;
    fc.dataRate = 1.0; // every operation tries to flip a bit
    FaultInjector fi(fc);
    QorConfig qc;
    qc.budget = 1.0; // never trips; only the estimate matters here
    QorGuardrail g(qc);
    llc.setFaultInjector(&fi);
    llc.setGuardrail(&g);

    BlockData buf;
    // Fill with approximate blocks only: flips must land.
    for (u32 i = 0; i < 64; ++i) {
        seedBlock(mem, region.base + i * 0x40, 0.5f);
        llc.fetch(region.base + i * 0x40, buf.data());
    }
    for (int round = 0; round < 4; ++round)
        for (u32 i = 0; i < 64; ++i)
            llc.fetch(region.base + i * 0x40, buf.data());

    EXPECT_GT(llc.stats().faultsInjected, 0u);
    EXPECT_EQ(llc.stats().faultsInjected,
              fi.stats().injected[static_cast<size_t>(
                  FaultDomain::LlcData)]);
    EXPECT_GT(g.observations(), 0u);

    // Precise-only traffic: the same rate must never flip anything.
    ConventionalLlc preciseLlc(mem, 64 * blockBytes, 4, 6, &registry);
    FaultInjector fi2(fc);
    preciseLlc.setFaultInjector(&fi2);
    for (u32 i = 0; i < 256; ++i) {
        seedBlock(mem, 0x400000 + i * 0x40, 0.5f);
        preciseLlc.fetch(0x400000 + i * 0x40, buf.data());
    }
    EXPECT_EQ(preciseLlc.stats().faultsInjected, 0u);
}

TEST(FaultStress, SplitGuardrailDegradesToPrecise)
{
    MainMemory mem;
    ApproxRegistry registry;
    ApproxRegion region;
    region.base = 0x0;
    region.size = 1024 * 0x40;
    registry.add(region);

    SplitLlcConfig sc;
    sc.preciseBytes = 64 * blockBytes;
    sc.preciseWays = 4;
    sc.dopp = smallConfig();
    sc.dopp.mapBits = 4; // coarse bins: joins substitute large errors
    SplitLlc llc(mem, sc, registry);

    QorConfig qc;
    qc.budget = 0.001; // trip almost immediately
    qc.window = 8;
    qc.minDwell = 4;
    QorGuardrail g(qc);
    llc.setGuardrail(&g);

    // Dissimilar values per block: every join substitutes real error.
    Rng rng(5);
    BlockData buf;
    for (u64 i = 0; i < 2000; ++i) {
        const Addr addr = (rng.below(512)) * 0x40;
        seedBlock(mem, addr, static_cast<float>(rng.uniform()));
        llc.fetch(addr, buf.data());
    }

    EXPECT_TRUE(g.degradationCount() > 0);
    EXPECT_GT(llc.stats().degradedFills, 0u);

    // Exactly-once aggregation: the split's own counter is the only
    // source of degradedFills, and stats() is idempotent.
    EXPECT_EQ(llc.precise().stats().degradedFills, 0u);
    EXPECT_EQ(llc.doppelganger().stats().degradedFills, 0u);
    const u64 firstRead = llc.stats().degradedFills;
    EXPECT_EQ(llc.stats().degradedFills, firstRead);
}

TEST(FaultStress, UnifiedGuardrailInsertsPrecise)
{
    MainMemory mem;
    ApproxRegistry registry;
    ApproxRegion region;
    region.base = 0x0;
    region.size = 1024 * 0x40;
    registry.add(region);

    DoppConfig cfg = smallConfig();
    cfg.unified = true;
    cfg.mapBits = 4; // coarse bins: joins substitute large errors
    DoppelgangerCache cache(mem, cfg, &registry);

    QorConfig qc;
    qc.budget = 0.001;
    qc.window = 8;
    qc.minDwell = 4;
    QorGuardrail g(qc);
    cache.setGuardrail(&g);

    Rng rng(6);
    BlockData buf;
    std::string why;
    for (u64 i = 0; i < 2000; ++i) {
        const Addr addr = rng.below(512) * 0x40;
        seedBlock(mem, addr, static_cast<float>(rng.uniform()));
        cache.fetch(addr, buf.data());
    }
    EXPECT_GT(g.degradationCount(), 0u);
    EXPECT_GT(cache.stats().degradedFills, 0u);
    EXPECT_TRUE(cache.checkInvariants(&why)) << why;
}

TEST(FaultHarness, CampaignIsDeterministic)
{
    RunConfig cfg;
    cfg.llcName = "split-doppelganger";
    cfg.workload.scale = 0.05;
    cfg.fault.seed = 0xcafe;
    cfg.fault.memoryRate = 1e-2;
    cfg.fault.dataRate = 1e-2;
    cfg.fault.tagMetaRate = 1e-2;
    cfg.fault.mtagMetaRate = 1e-2;
    cfg.qor.budget = 0.05;

    const RunResult a = runWorkload("blackscholes", cfg);
    const RunResult b = runWorkload("blackscholes", cfg);

    EXPECT_GT(a.stats.counter("fault.injected.total"), 0u);
    ASSERT_EQ(a.faultTrace.size(), b.faultTrace.size());
    for (size_t i = 0; i < a.faultTrace.size(); ++i) {
        EXPECT_EQ(a.faultTrace[i].op, b.faultTrace[i].op);
        EXPECT_EQ(a.faultTrace[i].domain, b.faultTrace[i].domain);
        EXPECT_EQ(a.faultTrace[i].entry, b.faultTrace[i].entry);
        EXPECT_EQ(a.faultTrace[i].bit, b.faultTrace[i].bit);
    }
    ASSERT_EQ(a.output.size(), b.output.size());
    for (size_t i = 0; i < a.output.size(); ++i)
        EXPECT_DOUBLE_EQ(a.output[i], b.output[i]);
    // Runtime, guardrail, fault and every LLC counter.
    EXPECT_EQ(a.stats, b.stats);
}

TEST(FaultHarness, GuardrailReportsDegradationIntervals)
{
    RunConfig cfg;
    cfg.llcName = "uniDoppelganger";
    cfg.workload.scale = 0.05;
    cfg.fault.dataRate = 0.05;
    cfg.fault.tagMetaRate = 0.01;
    cfg.fault.mtagMetaRate = 0.01;
    cfg.qor.budget = 0.0005;
    cfg.qor.window = 16;
    cfg.qor.minDwell = 8;

    const RunResult r = runWorkload("kmeans", cfg);
    const u64 degradations = r.stats.counter("qor.degradations");
    EXPECT_GT(r.stats.counter("fault.injected.total"), 0u);
    EXPECT_GT(degradations, 0u);
    EXPECT_GT(r.stats.counter("llc.degradedFills"), 0u);
    EXPECT_EQ(r.degradedIntervals.empty(), degradations == 0);
    u64 sum = 0;
    for (const auto &iv : r.degradedIntervals) {
        EXPECT_GE(iv.endOp, iv.beginOp);
        sum += iv.endOp - iv.beginOp;
    }
    EXPECT_EQ(sum, r.stats.counter("qor.degradedOps"));
}

} // namespace dopp
