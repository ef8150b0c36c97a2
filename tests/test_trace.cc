/**
 * @file
 * Tests for trace capture and replay: file format round-trips, harness
 * capture, and replay equivalence (a replayed trace must reproduce the
 * original run's hierarchy behaviour on an identical system).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "harness/experiment.hh"
#include "sim/trace.hh"
#include "util/fileio.hh"
#include "util/hash.hh"

namespace dopp
{

namespace
{

/** Temp file path helper; removed on destruction. */
struct TempTrace
{
    TempTrace()
    {
        char buf[] = "/tmp/dopptrace-XXXXXX";
        const int fd = mkstemp(buf);
        if (fd >= 0)
            ::close(fd);
        path = buf;
    }

    ~TempTrace() { std::remove(path.c_str()); }

    std::string path;
};

} // namespace

TEST(Trace, WriteReadRoundTrip)
{
    TempTrace tmp;
    {
        TraceWriter w(tmp.path);
        for (u32 i = 0; i < 100; ++i) {
            TraceRecord r;
            r.addr = 0x1000 + i * 4;
            r.payload = i * 7;
            r.core = static_cast<u8>(i % 4);
            r.size = 4;
            r.isWrite = i % 3 == 0;
            w.append(r);
        }
        EXPECT_EQ(w.count(), 100u);
    }
    TraceReader rd(tmp.path);
    EXPECT_EQ(rd.count(), 100u);
    TraceRecord r;
    u32 i = 0;
    while (rd.next(r)) {
        EXPECT_EQ(r.addr, 0x1000 + i * 4);
        EXPECT_EQ(r.payload, i * 7);
        EXPECT_EQ(r.core, i % 4);
        EXPECT_EQ(r.isWrite, i % 3 == 0 ? 1 : 0);
        ++i;
    }
    EXPECT_EQ(i, 100u);
}

TEST(Trace, RewindRestarts)
{
    TempTrace tmp;
    {
        TraceWriter w(tmp.path);
        TraceRecord r;
        r.addr = 0xAA40;
        w.append(r);
    }
    TraceReader rd(tmp.path);
    TraceRecord r;
    ASSERT_TRUE(rd.next(r));
    EXPECT_FALSE(rd.next(r));
    rd.rewind();
    ASSERT_TRUE(rd.next(r));
    EXPECT_EQ(r.addr, 0xAA40u);
}

TEST(Trace, EmptyTraceIsValid)
{
    TempTrace tmp;
    {
        TraceWriter w(tmp.path);
    }
    TraceReader rd(tmp.path);
    EXPECT_EQ(rd.count(), 0u);
    TraceRecord r;
    EXPECT_FALSE(rd.next(r));
}

TEST(TraceDeathTest, BadMagicIsFatal)
{
    TempTrace tmp;
    std::FILE *f = std::fopen(tmp.path.c_str(), "wb");
    std::fwrite("NOTATRACE123456", 1, 16, f);
    std::fclose(f);
    EXPECT_EXIT((TraceReader(tmp.path)), ::testing::ExitedWithCode(1),
                "not a doppelganger trace");
}

TEST(TraceDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT((TraceReader("/nonexistent/file.dopptrc")),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(Trace, HarnessCapturesWorkloadRun)
{
    TempTrace tmp;
    RunConfig cfg;
    cfg.llcName = "baseline";
    cfg.workload.scale = 0.05;
    cfg.tracePath = tmp.path;
    const RunResult run = runWorkload("kmeans", cfg);

    TraceReader rd(tmp.path);
    EXPECT_EQ(rd.count(), run.stats.counter("hierarchy.accesses"));

    // Every record is well-formed.
    TraceRecord r;
    u64 writes = 0;
    while (rd.next(r)) {
        EXPECT_GE(r.size, 1);
        EXPECT_LE(r.size, 8);
        EXPECT_LT(r.core, 4);
        writes += r.isWrite;
    }
    EXPECT_EQ(writes, run.stats.counter("hierarchy.stores"));
}

TEST(Trace, ReplayReproducesHierarchyBehaviour)
{
    // Record a run, then replay the trace on an identical fresh
    // system: access/hit/miss counts and memory traffic must match
    // the original exactly (stores carry their payloads, so even the
    // functional state matches).
    TempTrace tmp;
    RunConfig cfg;
    cfg.llcName = "baseline";
    cfg.workload.scale = 0.05;
    cfg.tracePath = tmp.path;
    const RunResult run = runWorkload("jmeint", cfg);

    MainMemory mem;
    ApproxRegistry reg;
    ConventionalLlc llc(mem, 2 * 1024 * 1024, 16, 6, &reg);
    StatRegistry replayStats;
    MemorySystem sys(HierarchyConfig{}, llc, mem, &replayStats,
                     "hierarchy");
    TraceReader rd(tmp.path);
    const ReplayStats stats = replayTrace(rd, sys);
    const StatSnapshot replayed = replayStats.snapshot();

    EXPECT_EQ(stats.accesses, run.stats.counter("hierarchy.accesses"));
    EXPECT_EQ(stats.writes, run.stats.counter("hierarchy.stores"));
    EXPECT_EQ(replayed.counter("hierarchy.l1.hits"),
              run.stats.counter("hierarchy.l1.hits"));
    EXPECT_EQ(replayed.counter("hierarchy.l2.misses"),
              run.stats.counter("hierarchy.l2.misses"));
    EXPECT_EQ(llc.stats().fetchMisses, run.stats.counter("llc.fetchMisses"));
    // Trace replay sees the same addresses but pokes no initial data,
    // so only *traffic counts* are compared, not values.
    EXPECT_EQ(mem.reads(), run.stats.counter("mem.reads"));
}

TEST(Trace, ReplayOnDifferentLlcDiffers)
{
    // The point of traces: swap the LLC under the same access stream.
    TempTrace tmp;
    RunConfig cfg;
    cfg.llcName = "baseline";
    cfg.workload.scale = 0.1;
    cfg.tracePath = tmp.path;
    runWorkload("canneal", cfg);

    auto replayOn = [&](u64 llcBytes) {
        MainMemory mem;
        ApproxRegistry reg;
        ConventionalLlc llc(mem, llcBytes, 16, 6, &reg);
        MemorySystem sys(HierarchyConfig{}, llc, mem);
        TraceReader rd(tmp.path);
        replayTrace(rd, sys);
        return llc.stats().fetchMisses;
    };
    const u64 missesBig = replayOn(2 * 1024 * 1024);
    const u64 missesSmall = replayOn(64 * 1024);
    EXPECT_GT(missesSmall, missesBig);
}

TEST(Trace, InterleavePreservesAllRecords)
{
    TempTrace a;
    TempTrace b;
    TempTrace merged;
    {
        TraceWriter wa(a.path);
        TraceWriter wb(b.path);
        for (u32 i = 0; i < 150; ++i) {
            TraceRecord r;
            r.addr = i * 64;
            r.core = static_cast<u8>(i % 4);
            wa.append(r);
        }
        for (u32 i = 0; i < 40; ++i) {
            TraceRecord r;
            r.addr = i * 64;
            r.core = static_cast<u8>(i % 4);
            wb.append(r);
        }
    }
    const u64 total =
        interleaveTraces({a.path, b.path}, merged.path, 16);
    EXPECT_EQ(total, 190u);

    TraceReader rd(merged.path);
    EXPECT_EQ(rd.count(), 190u);
    TraceRecord r;
    u64 fromA = 0;
    u64 fromB = 0;
    while (rd.next(r)) {
        if (r.addr >= (1ULL << 33)) {
            ++fromB;
            EXPECT_GE(r.core, 2); // program 1 gets cores 2..3
        } else {
            ++fromA;
            EXPECT_LT(r.core, 2); // program 0 gets cores 0..1
        }
    }
    EXPECT_EQ(fromA, 150u);
    EXPECT_EQ(fromB, 40u);
}

TEST(Trace, InterleaveChunksAlternate)
{
    TempTrace a;
    TempTrace b;
    TempTrace merged;
    {
        TraceWriter wa(a.path);
        TraceWriter wb(b.path);
        for (u32 i = 0; i < 8; ++i) {
            TraceRecord r;
            r.addr = 0x100;
            wa.append(r);
            r.addr = 0x200;
            wb.append(r);
        }
    }
    interleaveTraces({a.path, b.path}, merged.path, 4);
    TraceReader rd(merged.path);
    TraceRecord r;
    std::vector<int> origin;
    while (rd.next(r))
        origin.push_back(r.addr >= (1ULL << 33) ? 1 : 0);
    const std::vector<int> expect = {0, 0, 0, 0, 1, 1, 1, 1,
                                     0, 0, 0, 0, 1, 1, 1, 1};
    EXPECT_EQ(origin, expect);
}

TEST(Trace, MultiprogramReplayRunsOnSharedLlc)
{
    TempTrace a;
    TempTrace b;
    TempTrace merged;
    RunConfig cfg;
    cfg.llcName = "baseline";
    cfg.workload.scale = 0.05;
    cfg.tracePath = a.path;
    const RunResult ra = runWorkload("kmeans", cfg);
    cfg.tracePath = b.path;
    const RunResult rb = runWorkload("jmeint", cfg);
    interleaveTraces({a.path, b.path}, merged.path);

    MainMemory mem;
    ApproxRegistry reg;
    ConventionalLlc llc(mem, 2 * 1024 * 1024, 16, 6, &reg);
    MemorySystem sys(HierarchyConfig{}, llc, mem);
    TraceReader rd(merged.path);
    const ReplayStats stats = replayTrace(rd, sys);
    EXPECT_EQ(stats.accesses, ra.stats.counter("hierarchy.accesses") +
                                  rb.stats.counter("hierarchy.accesses"));
    // The shared run misses at least as much as either alone would
    // have at the same size (disjoint address spaces only compete).
    EXPECT_GE(llc.stats().fetchMisses,
              std::max(ra.stats.counter("llc.fetchMisses"),
                       rb.stats.counter("llc.fetchMisses")));
}

TEST(TraceDeathTest, InterleaveRejectsTooManyPrograms)
{
    TempTrace a;
    {
        TraceWriter w(a.path);
    }
    EXPECT_EXIT(interleaveTraces({a.path, a.path, a.path, a.path,
                                  a.path},
                                 "/tmp/never.dopptrc", 4, 1 << 20, 4),
                ::testing::ExitedWithCode(1), "more programs");
}

TEST(Trace, RecordLayoutIsStable)
{
    // The on-disk format is a contract: 24-byte records.
    EXPECT_EQ(sizeof(TraceRecord), 24u);
    EXPECT_EQ(std::string(traceMagic, 8), "DOPPTRC1");
}

TEST(TracePins, RecordedStreamIsPinned)
{
    // The FNV-1a digest of a recorded trace file pins the access
    // stream itself: the order, address, size, core and direction of
    // every access and the payload of every store, on split
    // Doppelgänger at scale 0.05. canneal issues element loads and
    // stores, jpeg mostly block runs (DESIGN.md §19); both must record
    // one record per element, in program order.
    struct Pin
    {
        const char *workload;
        u64 digest;
    };
    constexpr Pin pins[] = {
        {"canneal", 0x03de0c1c0242d9faULL},
        {"jpeg", 0x2e2a1fd9c28f53fdULL},
    };
    ScratchDir dir("dopp-tracepins");
    for (const Pin &pin : pins) {
        RunConfig cfg;
        cfg.llcName = "split-doppelganger";
        cfg.workload.scale = 0.05;
        cfg.tracePath = dir.path() + "/" + pin.workload + ".dopptrc";
        runWorkload(pin.workload, cfg);
        std::string bytes;
        ASSERT_TRUE(readFileIfExists(cfg.tracePath, bytes));
        const u64 digest = fnv1a64(bytes);
        EXPECT_EQ(digest, pin.digest)
            << pin.workload << ": digest 0x" << std::hex << digest;
    }
}

namespace
{

/** Write @p n valid records to @p path. */
void
writeValidTrace(const std::string &path, u32 n)
{
    TraceWriter w(path);
    for (u32 i = 0; i < n; ++i) {
        TraceRecord r;
        r.addr = 0x1000 + i * blockBytes;
        w.append(r);
    }
}

/** Truncate the file at @p path to @p bytes. */
void
truncateFile(const std::string &path, long bytes)
{
    ASSERT_EQ(::truncate(path.c_str(), bytes), 0);
}

} // namespace

TEST(TraceDeathTest, ShortMagicIsFatal)
{
    TempTrace tmp;
    writeValidTrace(tmp.path, 4);
    truncateFile(tmp.path, 5); // mid-magic
    EXPECT_EXIT(TraceReader rd(tmp.path),
                ::testing::ExitedWithCode(1),
                "offset 0: file too short for the 8-byte magic");
}

TEST(TraceDeathTest, ShortHeaderCountIsFatal)
{
    TempTrace tmp;
    writeValidTrace(tmp.path, 4);
    truncateFile(tmp.path, 12); // magic intact, count cut in half
    EXPECT_EXIT(TraceReader rd(tmp.path),
                ::testing::ExitedWithCode(1),
                "offset 8: file too short for the record count");
}

TEST(TraceDeathTest, TruncatedBodyIsFatal)
{
    TempTrace tmp;
    writeValidTrace(tmp.path, 8);
    // Cut the last record in half: header promises more than is there.
    truncateFile(tmp.path, 16 + 8 * 24 - 12);
    EXPECT_EXIT(TraceReader rd(tmp.path),
                ::testing::ExitedWithCode(1), "truncated: .*promises");
}

TEST(TraceDeathTest, TrailingBytesAreFatal)
{
    TempTrace tmp;
    writeValidTrace(tmp.path, 2);
    std::FILE *f = std::fopen(tmp.path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char junk[7] = {};
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    EXPECT_EXIT(TraceReader rd(tmp.path),
                ::testing::ExitedWithCode(1),
                "7 trailing bytes after the 2 promised records");
}

TEST(TraceDeathTest, AbsurdRecordCountIsFatal)
{
    TempTrace tmp;
    writeValidTrace(tmp.path, 1);
    // Overwrite the count with a value whose byte size overflows.
    std::FILE *f = std::fopen(tmp.path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8, SEEK_SET);
    const u64 absurd = ~0ULL;
    std::fwrite(&absurd, sizeof(absurd), 1, f);
    std::fclose(f);
    EXPECT_EXIT(TraceReader rd(tmp.path),
                ::testing::ExitedWithCode(1),
                "offset 8: absurd record count");
}

TEST(TraceDeathTest, OutOfRangeAccessSizeIsFatal)
{
    TempTrace tmp;
    {
        TraceWriter w(tmp.path);
        TraceRecord r;
        w.append(r);
        w.append(r);
    }
    // Corrupt record 1's size field (offset 16 + 24 + 17).
    std::FILE *f = std::fopen(tmp.path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 16 + 24 + 17, SEEK_SET);
    const u8 bad = 9;
    std::fwrite(&bad, 1, 1, f);
    std::fclose(f);

    TraceReader rd(tmp.path);
    TraceRecord r;
    EXPECT_TRUE(rd.next(r)); // record 0 is fine
    EXPECT_EXIT(rd.next(r), ::testing::ExitedWithCode(1),
                "record 1 .*: access size 9 out of range 1..8");
}

TEST(TraceDeathTest, BadIsWriteFlagIsFatal)
{
    TempTrace tmp;
    {
        TraceWriter w(tmp.path);
        TraceRecord r;
        w.append(r);
    }
    // Corrupt record 0's isWrite flag (offset 16 + 18).
    std::FILE *f = std::fopen(tmp.path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 16 + 18, SEEK_SET);
    const u8 bad = 0xff;
    std::fwrite(&bad, 1, 1, f);
    std::fclose(f);

    TraceReader rd(tmp.path);
    TraceRecord r;
    EXPECT_EXIT(rd.next(r), ::testing::ExitedWithCode(1),
                "isWrite flag 255 is neither 0 nor 1");
}

TEST(TraceDeathTest, BlockStraddlingRecordIsFatal)
{
    TempTrace tmp;
    {
        TraceWriter w(tmp.path);
        TraceRecord r;
        r.addr = 0x1000;
        w.append(r);
        r.addr = 0x103e; // bytes 0x103e..0x1041 cross into the next block
        w.append(r);
    }
    TraceReader rd(tmp.path);
    TraceRecord r;
    EXPECT_TRUE(rd.next(r));
    EXPECT_EXIT(rd.next(r), ::testing::ExitedWithCode(1),
                "trace '.*': record 1 \\(offset 40\\): 4-byte access at "
                "0x103e straddles a 64-byte block");
}

TEST(TraceDeathTest, ReplayRejectsCoreOutsideTheSystem)
{
    TempTrace tmp;
    {
        TraceWriter w(tmp.path);
        TraceRecord r;
        r.addr = 0x1000;
        w.append(r);
        r.core = 4; // the Table 1 system has cores 0..3
        w.append(r);
    }
    MainMemory mem;
    ConventionalLlc llc(mem, 2 * 1024 * 1024, 16, 6, nullptr);
    MemorySystem sys(HierarchyConfig{}, llc, mem);
    TraceReader rd(tmp.path);
    EXPECT_EXIT(replayTrace(rd, sys), ::testing::ExitedWithCode(1),
                "trace '.*': record 1 \\(offset 40\\): core 4 out of "
                "range 0..3");
}

TEST(TraceDeathTest, FailedFlushOnCloseIsFatal)
{
    // /dev/full accepts the open and every buffered fwrite, then
    // fails the flush with ENOSPC.
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full is not available";
    auto writeTen = [] {
        TraceWriter w("/dev/full");
        TraceRecord r;
        for (int i = 0; i < 10; ++i)
            w.append(r);
        w.close();
    };
    EXPECT_EXIT(writeTen(), ::testing::ExitedWithCode(1),
                "trace '/dev/full': write failed on close");
}

} // namespace dopp
