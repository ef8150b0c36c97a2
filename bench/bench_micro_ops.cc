/**
 * @file
 * Micro-operation benchmarks (google-benchmark): map generation
 * throughput for each element type, Doppelgänger hit/miss/writeback
 * paths against the conventional cache's, B∆I compression and
 * decompression, the compressed LLCs' fetch-miss paths and the G-DISH
 * dictionary, the guardrail's substitution-error kernel, the full
 * 4-core hierarchy access path, and a SimArray row read as one block
 * run against the per-element loop.
 */

#include <benchmark/benchmark.h>

#include "compress/bdi.hh"
#include "compress/bdi_llc.hh"
#include "compress/gdish.hh"
#include "core/doppelganger_cache.hh"
#include "core/split_llc.hh"
#include "fault/qor_guardrail.hh"
#include "sim/hierarchy.hh"
#include "util/random.hh"
#include "workloads/runtime.hh"

using namespace dopp;

namespace
{

BlockData
randomBlock(Rng &rng)
{
    BlockData b;
    for (auto &byte : b)
        byte = static_cast<u8>(rng.below(256));
    return b;
}

void
BM_MapGeneration(benchmark::State &state)
{
    const ElemType type = static_cast<ElemType>(state.range(0));
    Rng rng(42);
    BlockData block = randomBlock(rng);
    MapParams params;
    params.mapBits = 14;
    params.type = type;
    params.minValue = 0.0;
    params.maxValue = 255.0;

    for (auto _ : state) {
        benchmark::DoNotOptimize(computeMap(block.data(), params));
        block[0] = static_cast<u8>(block[0] + 1);
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

void
BM_MapGenerationGeneric(benchmark::State &state)
{
    // Reference per-element blockElement() path; the ratio of
    // BM_MapGeneration to this is the monomorphized-kernel speedup.
    const ElemType type = static_cast<ElemType>(state.range(0));
    Rng rng(42);
    BlockData block = randomBlock(rng);
    MapParams params;
    params.mapBits = 14;
    params.type = type;
    params.minValue = 0.0;
    params.maxValue = 255.0;

    for (auto _ : state) {
        benchmark::DoNotOptimize(
            computeMapComponentsGeneric(block.data(), params).combined);
        block[0] = static_cast<u8>(block[0] + 1);
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

/** Block kinds for BM_BdiCompressedSize: which kernels run before
 * the size is known. */
enum class BdiBlock
{
    B4D1,           ///< small deltas from one 4-byte base
    Incompressible, ///< every (k, d) kernel is tried and fails
    Zeros,          ///< the whole-word zero test answers
};

void
BM_BdiCompressedSize(benchmark::State &state)
{
    Rng rng(42);
    BlockData block = {};
    switch (static_cast<BdiBlock>(state.range(0))) {
      case BdiBlock::B4D1:
        for (unsigned i = 0; i < blockBytes; i += 4) {
            const i32 v = 1000000 + static_cast<i32>(rng.below(100));
            std::memcpy(block.data() + i, &v, 4);
        }
        break;
      case BdiBlock::Incompressible:
        block = randomBlock(rng);
        break;
      case BdiBlock::Zeros:
        break;
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(bdiCompressedSize(block.data()));
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

/** Blocks of float words drawn from a pool of @p pool values, so
 * blocks share words the way similar approximate data does. */
std::vector<BlockData>
pooledFloatBlocks(Rng &rng, size_t n, unsigned pool)
{
    std::vector<BlockData> blocks(n);
    for (auto &b : blocks) {
        for (unsigned i = 0; i < blockBytes; i += 4) {
            const float f = static_cast<float>(rng.below(pool)) * 0.125f;
            std::memcpy(b.data() + i, &f, 4);
        }
    }
    return blocks;
}

void
BM_GdishDictAcquireRelease(benchmark::State &state)
{
    // A warm dictionary holding 128 resident blocks; each iteration
    // acquires and releases one more block over the same word pool.
    Rng rng(5);
    GdishDict dict(GdishLlcConfig{}.dictEntries);
    for (const BlockData &b : pooledFloatBlocks(rng, 128, 2048))
        dict.acquire(b.data());
    const std::vector<BlockData> blocks = pooledFloatBlocks(rng, 256, 2048);
    size_t i = 0;
    for (auto _ : state) {
        const u8 *b = blocks[i++ % blocks.size()].data();
        if (dict.acquire(b))
            dict.release(b);
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

/**
 * Fetch misses on a compressed LLC: a 16 MB stream (8× the 2 MB LLC)
 * of mixed blocks, so every fetch misses, evicts and installs.
 */
template <typename Llc, typename Config>
void
compressedFetchMiss(benchmark::State &state)
{
    MainMemory mem;
    Rng rng(9);
    constexpr u64 streamBlocks = 16 * 1024 * 1024 / blockBytes;
    const std::vector<BlockData> pooled = pooledFloatBlocks(rng, 64, 64);
    for (u64 i = 0; i < streamBlocks; ++i) {
        const BlockData b = i % 3 ? pooled[i % pooled.size()]
                                  : randomBlock(rng);
        mem.poke(i * blockBytes, b.data(), blockBytes);
    }
    Llc cache(mem, Config{}, nullptr);
    BlockData buf;
    u64 i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.fetch((i++ % streamBlocks) * blockBytes, buf.data()));
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

void
BM_BdiLlcFetchMiss(benchmark::State &state)
{
    compressedFetchMiss<BdiLlc, BdiLlcConfig>(state);
}

void
BM_GdishLlcFetchMiss(benchmark::State &state)
{
    compressedFetchMiss<GdishLlc, GdishLlcConfig>(state);
}

void
BM_BdiRoundTrip(benchmark::State &state)
{
    Rng rng(42);
    BlockData block = {};
    for (unsigned i = 0; i < blockBytes; i += 4) {
        const i32 v = 1000000 + static_cast<i32>(rng.below(100));
        std::memcpy(block.data() + i, &v, 4);
    }
    BlockData out;
    for (auto _ : state) {
        const BdiCompressed c = bdiCompress(block.data());
        benchmark::DoNotOptimize(bdiDecompress(c, out.data()));
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

void
BM_DoppFetchHit(benchmark::State &state)
{
    MainMemory mem;
    DoppConfig cfg;
    DoppelgangerCache cache(mem, cfg, nullptr);
    Rng rng(7);
    // Warm 1024 blocks of distinct random F32 values in [0, 1), so the
    // hits spread over many data entries and MTag sets instead of all
    // sharing the all-zero block's one entry.
    BlockData buf;
    for (u64 i = 0; i < 1024; ++i) {
        for (unsigned e = 0; e < elemsPerBlock(ElemType::F32); ++e)
            setBlockElement(buf.data(), ElemType::F32, e, rng.uniform());
        mem.poke(i * blockBytes, buf.data(), blockBytes);
        cache.fetch(i * blockBytes, buf.data());
    }
    state.counters["data_entries"] =
        static_cast<double>(cache.dataCount());
    u64 i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.fetch((i++ % 1024) * blockBytes, buf.data()));
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

void
BM_BlockSubstitutionError(benchmark::State &state)
{
    // The guardrail's per-substitution error over a served/exact pair
    // of random blocks (fault/qor_guardrail.hh).
    const ElemType type = static_cast<ElemType>(state.range(0));
    Rng rng(42);
    BlockData served = randomBlock(rng);
    const BlockData exact = randomBlock(rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(blockSubstitutionError(
            served.data(), exact.data(), type, 255.0));
        served[0] = static_cast<u8>(served[0] + 1);
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

void
BM_DoppFetchMissInsert(benchmark::State &state)
{
    MainMemory mem;
    DoppConfig cfg;
    DoppelgangerCache cache(mem, cfg, nullptr);
    Rng rng(7);
    BlockData buf;
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.fetch(a, buf.data()));
        a += blockBytes;
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

void
BM_ConventionalFetchHit(benchmark::State &state)
{
    MainMemory mem;
    ConventionalLlc cache(mem, 2 * 1024 * 1024, 16, 6, nullptr);
    BlockData buf;
    for (u64 i = 0; i < 1024; ++i)
        cache.fetch(i * blockBytes, buf.data());
    u64 i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.fetch((i++ % 1024) * blockBytes, buf.data()));
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

void
BM_HierarchyAccess(benchmark::State &state)
{
    MainMemory mem;
    ApproxRegistry reg;
    ConventionalLlc llc(mem, 2 * 1024 * 1024, 16, 6, &reg);
    HierarchyConfig hc;
    MemorySystem sys(hc, llc, mem);
    Rng rng(3);
    u32 value = 0;
    u64 i = 0;
    for (auto _ : state) {
        const Addr a = (i * 4) % (1 << 20);
        benchmark::DoNotOptimize(
            sys.access(static_cast<CoreId>(i % 4), a, false, 4, &value));
        ++i;
    }
    state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}

/** One core reading one L1-resident 32-float row, the shape of a
 * ferret candidate row. Items are elements, so the two benchmarks
 * below compare per-element cost directly. */
struct RowRig
{
    RowRig()
        : llc(mem, 2 * 1024 * 1024, 16, 6, &reg), sys(hc, llc, mem),
          rt(sys, mem, reg), row(rt, rowElems, "row")
    {
        float warm[rowElems];
        row.getRun(0, rowElems, warm);
    }

    static constexpr u64 rowElems = 32;
    MainMemory mem;
    ApproxRegistry reg;
    ConventionalLlc llc;
    HierarchyConfig hc;
    MemorySystem sys;
    SimRuntime rt;
    SimArray<float> row;
};

void
BM_SimArrayGetRun(benchmark::State &state)
{
    RowRig rig;
    float buf[RowRig::rowElems];
    for (auto _ : state) {
        rig.row.getRun(0, RowRig::rowElems, buf);
        benchmark::DoNotOptimize(buf);
    }
    state.SetItemsProcessed(
        static_cast<i64>(state.iterations() * RowRig::rowElems));
}

void
BM_SimArrayGetLoop(benchmark::State &state)
{
    RowRig rig;
    float buf[RowRig::rowElems];
    for (auto _ : state) {
        for (u64 j = 0; j < RowRig::rowElems; ++j)
            buf[j] = rig.row.get(j);
        benchmark::DoNotOptimize(buf);
    }
    state.SetItemsProcessed(
        static_cast<i64>(state.iterations() * RowRig::rowElems));
}

BENCHMARK(BM_MapGeneration)
    ->Arg(static_cast<int>(ElemType::U8))
    ->Arg(static_cast<int>(ElemType::I32))
    ->Arg(static_cast<int>(ElemType::F32))
    ->Arg(static_cast<int>(ElemType::F64));
BENCHMARK(BM_MapGenerationGeneric)
    ->Arg(static_cast<int>(ElemType::U8))
    ->Arg(static_cast<int>(ElemType::I32))
    ->Arg(static_cast<int>(ElemType::F32))
    ->Arg(static_cast<int>(ElemType::F64));
BENCHMARK(BM_BdiCompressedSize)
    ->Arg(static_cast<int>(BdiBlock::B4D1))
    ->Arg(static_cast<int>(BdiBlock::Incompressible))
    ->Arg(static_cast<int>(BdiBlock::Zeros));
BENCHMARK(BM_BdiRoundTrip);
BENCHMARK(BM_DoppFetchHit);
BENCHMARK(BM_BlockSubstitutionError)
    ->Arg(static_cast<int>(ElemType::U8))
    ->Arg(static_cast<int>(ElemType::F32));
BENCHMARK(BM_DoppFetchMissInsert);
BENCHMARK(BM_GdishDictAcquireRelease);
BENCHMARK(BM_BdiLlcFetchMiss);
BENCHMARK(BM_GdishLlcFetchMiss);
BENCHMARK(BM_ConventionalFetchHit);
BENCHMARK(BM_HierarchyAccess);
BENCHMARK(BM_SimArrayGetRun);
BENCHMARK(BM_SimArrayGetLoop);

} // namespace

BENCHMARK_MAIN();
