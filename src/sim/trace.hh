/**
 * @file
 * Memory-access trace capture and replay.
 *
 * The paper drives its cache model from Pin-instrumented executions;
 * this module provides the equivalent artifact workflow: record every
 * simulated access of a workload run to a compact binary trace, then
 * replay the trace against any LLC organization without re-executing
 * the workload. Replay reproduces addresses, cores, sizes and write
 * payloads exactly, so timing/occupancy studies are decoupled from the
 * kernels (error studies still need execution, since approximate loads
 * feed back into control flow).
 *
 * Format (little-endian): 16-byte header ("DOPPTRC1" + u64 record
 * count), then fixed 24-byte records.
 */

#ifndef DOPP_SIM_TRACE_HH
#define DOPP_SIM_TRACE_HH

#include <cstdio>
#include <string>
#include <vector>

#include "sim/hierarchy.hh"
#include "util/types.hh"

namespace dopp
{

/** One recorded memory access. */
struct TraceRecord
{
    Addr addr = 0;       ///< byte address
    u64 payload = 0;     ///< write data (low `size` bytes); 0 for reads
    u8 core = 0;         ///< issuing core
    u8 size = 4;         ///< access size in bytes (1..8)
    u8 isWrite = 0;      ///< 1 = store
    u8 reserved[5] = {}; ///< pad to 24 bytes
};

static_assert(sizeof(TraceRecord) == 24, "trace record layout");

/** Streaming writer for .dopptrc files. */
class TraceWriter
{
  public:
    /** Open @p path for writing; fatal on failure. */
    explicit TraceWriter(const std::string &path);

    /** Closes the file; fatal, naming the path, if that fails. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record. */
    void append(const TraceRecord &record);

    /** Records written so far. */
    u64 count() const { return records; }

    /**
     * Flush, finalize the header and close; called by the destructor
     * too. Fatal, naming the path, when the records, the count or the
     * close cannot be written (a full disk, /dev/full): a trace that
     * reports count() records has them on disk.
     */
    void close();

  private:
    std::string path_;
    std::FILE *file = nullptr;
    u64 records = 0;
};

/**
 * Streaming reader for .dopptrc files.
 *
 * Hardened against malformed input: a missing/short/garbage header, a
 * file whose size disagrees with the promised record count (truncated
 * or with trailing bytes) and records with out-of-range fields (size
 * outside 1..8, isWrite neither 0 nor 1, an access straddling a 64 B
 * block) are all fatal, with the file name, byte offset / record index
 * and reason in the message — a corrupt trace can never be
 * half-replayed silently, and never reaches the hierarchy's asserts.
 * Fields whose range depends on the replaying machine (the core) are
 * checked by replayTrace in the same format.
 */
class TraceReader
{
  public:
    /** Open and validate @p path; fatal on any malformation. */
    explicit TraceReader(const std::string &path);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** Total records the header promises. */
    u64 count() const { return total; }

    /** Read and validate the next record. @return false at end. */
    bool next(TraceRecord &record);

    /** "trace '<path>': record N (offset B)" for the record next()
     * last returned, the prefix of every per-record error. */
    std::string where() const;

    /** Rewind to the first record. */
    void rewind();

  private:
    std::string path_;
    std::FILE *file = nullptr;
    u64 total = 0;
    u64 consumed = 0;
};

/** Outcome of a trace replay. */
struct ReplayStats
{
    u64 accesses = 0;
    u64 reads = 0;
    u64 writes = 0;
    Tick totalLatency = 0; ///< sum of per-access stall cycles

    double
    avgLatency() const
    {
        return accesses ? static_cast<double>(totalLatency) /
            static_cast<double>(accesses) : 0.0;
    }
};

/**
 * Replay @p trace against @p system from its current (typically cold)
 * state. Write payloads are applied; read data is discarded. A record
 * whose core is outside system.numCores() is fatal (TraceReader::where
 * names it).
 */
ReplayStats replayTrace(TraceReader &trace, MemorySystem &system);

/** The magic bytes at the start of every trace file. */
extern const char traceMagic[8];

/**
 * Multiprogramming support (paper Sec 4.1): interleave several
 * single-program traces into one, round-robin in chunks of @p chunk
 * records. Program i's addresses are offset by i × @p address_stride
 * (disjoint address spaces, as separate processes would have) and its
 * cores are remapped into an equal share of @p machine_cores. The
 * merged trace replays as a multiprogrammed workload sharing one LLC.
 *
 * @return the number of records written.
 */
u64 interleaveTraces(const std::vector<std::string> &inputs,
                     const std::string &output, u64 chunk = 64,
                     Addr address_stride = 1ULL << 33,
                     u32 machine_cores = 4);

} // namespace dopp

#endif // DOPP_SIM_TRACE_HH
