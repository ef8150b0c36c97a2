#include "trace.hh"

#include <cerrno>
#include <cstring>
#include <memory>

#include "util/logging.hh"

namespace dopp
{

const char traceMagic[8] = {'D', 'O', 'P', 'P', 'T', 'R', 'C', '1'};

namespace
{

constexpr u64 headerBytes = sizeof(traceMagic) + sizeof(u64);

} // namespace

TraceWriter::TraceWriter(const std::string &path) : path_(path)
{
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        fatal("cannot open trace '%s' for writing", path.c_str());
    // Header: magic + placeholder count (fixed on close()).
    std::fwrite(traceMagic, 1, sizeof(traceMagic), file);
    const u64 zero = 0;
    std::fwrite(&zero, sizeof(zero), 1, file);
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const TraceRecord &record)
{
    DOPP_ASSERT(file);
    DOPP_ASSERT(record.size >= 1 && record.size <= 8);
    if (std::fwrite(&record, sizeof(record), 1, file) != 1)
        fatal("trace '%s': write failed: %s", path_.c_str(),
              std::strerror(errno));
    ++records;
}

void
TraceWriter::close()
{
    if (!file)
        return;
    std::FILE *f = file;
    file = nullptr;
    // Patch the record count into the header. Records are buffered,
    // so a full or failing device surfaces here: the seek flushes
    // them, and fclose flushes the count.
    const bool patched = std::fseek(f, sizeof(traceMagic), SEEK_SET) == 0 &&
        std::fwrite(&records, sizeof(records), 1, f) == 1;
    if (std::fclose(f) != 0 || !patched) {
        fatal("trace '%s': write failed on close: %s", path_.c_str(),
              std::strerror(errno));
    }
}

TraceReader::TraceReader(const std::string &path) : path_(path)
{
    file = std::fopen(path.c_str(), "rb");
    if (!file)
        fatal("trace '%s': cannot open for reading", path.c_str());

    char magic[8];
    const size_t got = std::fread(magic, 1, sizeof(magic), file);
    if (got != sizeof(magic)) {
        fatal("trace '%s': offset 0: file too short for the 8-byte "
              "magic (got %zu bytes)", path.c_str(), got);
    }
    if (std::memcmp(magic, traceMagic, sizeof(magic)) != 0) {
        fatal("trace '%s': offset 0: bad magic, not a doppelganger "
              "trace", path.c_str());
    }
    if (std::fread(&total, sizeof(total), 1, file) != 1) {
        fatal("trace '%s': offset 8: file too short for the record "
              "count", path.c_str());
    }

    // The whole file must be exactly header + total records: anything
    // shorter was truncated mid-write, anything longer carries garbage
    // (or the header count itself is corrupt). Check up front so a
    // replay never starts on a trace it cannot finish.
    if (total > (static_cast<u64>(INT64_MAX) - headerBytes) /
            sizeof(TraceRecord)) {
        fatal("trace '%s': offset 8: absurd record count %llu",
              path.c_str(), static_cast<unsigned long long>(total));
    }
    if (std::fseek(file, 0, SEEK_END) != 0)
        fatal("trace '%s': cannot seek to end", path.c_str());
    const long actual = std::ftell(file);
    const u64 expected = headerBytes + total * sizeof(TraceRecord);
    if (actual < 0 || static_cast<u64>(actual) < expected) {
        fatal("trace '%s': truncated: %ld bytes, but the header "
              "promises %llu records (%llu bytes)", path.c_str(),
              actual, static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(expected));
    }
    if (static_cast<u64>(actual) > expected) {
        fatal("trace '%s': %llu trailing bytes after the %llu "
              "promised records — count corrupt or file overwritten",
              path.c_str(),
              static_cast<unsigned long long>(
                  static_cast<u64>(actual) - expected),
              static_cast<unsigned long long>(total));
    }
    std::fseek(file, static_cast<long>(headerBytes), SEEK_SET);
}

TraceReader::~TraceReader()
{
    if (file)
        std::fclose(file);
}

bool
TraceReader::next(TraceRecord &record)
{
    if (consumed >= total)
        return false;
    if (std::fread(&record, sizeof(record), 1, file) != 1) {
        fatal("trace '%s': read failed at record %llu", path_.c_str(),
              static_cast<unsigned long long>(consumed));
    }
    ++consumed;
    if (record.size < 1 || record.size > 8) {
        fatal("%s: access size %u out of range 1..8", where().c_str(),
              static_cast<unsigned>(record.size));
    }
    if (record.isWrite > 1) {
        fatal("%s: isWrite flag %u is neither 0 nor 1", where().c_str(),
              static_cast<unsigned>(record.isWrite));
    }
    if (blockOffset(record.addr) + record.size > blockBytes) {
        fatal("%s: %u-byte access at %#llx straddles a %u-byte block",
              where().c_str(), static_cast<unsigned>(record.size),
              static_cast<unsigned long long>(record.addr), blockBytes);
    }
    return true;
}

std::string
TraceReader::where() const
{
    const u64 index = consumed - 1;
    return "trace '" + path_ + "': record " + std::to_string(index) +
        " (offset " +
        std::to_string(headerBytes + index * sizeof(TraceRecord)) + ")";
}

void
TraceReader::rewind()
{
    std::fseek(file, static_cast<long>(headerBytes), SEEK_SET);
    consumed = 0;
}

u64
interleaveTraces(const std::vector<std::string> &inputs,
                 const std::string &output, u64 chunk,
                 Addr address_stride, u32 machine_cores)
{
    DOPP_ASSERT(chunk > 0);
    if (inputs.empty())
        fatal("interleaveTraces: no inputs");
    if (inputs.size() > machine_cores)
        fatal("interleaveTraces: more programs than cores");

    std::vector<std::unique_ptr<TraceReader>> readers;
    for (const auto &path : inputs)
        readers.push_back(std::make_unique<TraceReader>(path));

    const u32 coresPer =
        machine_cores / static_cast<u32>(inputs.size());
    TraceWriter writer(output);

    bool anyLeft = true;
    while (anyLeft) {
        anyLeft = false;
        for (size_t i = 0; i < readers.size(); ++i) {
            TraceRecord rec;
            for (u64 k = 0; k < chunk; ++k) {
                if (!readers[i]->next(rec))
                    break;
                rec.addr += address_stride * i;
                rec.core = static_cast<u8>(
                    static_cast<u32>(i) * coresPer +
                    rec.core % coresPer);
                writer.append(rec);
                anyLeft = true;
            }
        }
    }
    const u64 written = writer.count();
    writer.close();
    return written;
}

ReplayStats
replayTrace(TraceReader &trace, MemorySystem &system)
{
    ReplayStats stats;
    TraceRecord rec;
    while (trace.next(rec)) {
        if (rec.core >= system.numCores()) {
            fatal("%s: core %u out of range 0..%u", trace.where().c_str(),
                  static_cast<unsigned>(rec.core), system.numCores() - 1);
        }
        u64 payload = rec.payload;
        const Tick lat =
            system.access(rec.core, rec.addr, rec.isWrite != 0,
                          rec.size, &payload);
        stats.totalLatency += lat;
        ++stats.accesses;
        if (rec.isWrite)
            ++stats.writes;
        else
            ++stats.reads;
    }
    return stats;
}

} // namespace dopp
