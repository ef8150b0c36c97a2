#include "gdish.hh"

#include <bit>
#include <cstring>

#include "util/logging.hh"

namespace dopp
{

namespace
{

/** Table bits for @p capacity live words at load ≤ ½ (at least 2
 * slots, so the home-slot shift stays below 64). */
unsigned
tableBits(u32 capacity)
{
    if (capacity <= 1)
        return 1;
    return static_cast<unsigned>(
        std::bit_width(2 * static_cast<u64>(capacity) - 1));
}

} // namespace

GdishDict::GdishDict(u32 capacity)
    : cap(capacity), slots(size_t{1} << tableBits(capacity), Slot{0, 0}),
      mask(static_cast<u32>(slots.size() - 1)),
      shift(64 - tableBits(capacity))
{
}

GdishDict::Distinct
GdishDict::distinct(const u8 *block)
{
    u32 w[gdishWordsPerBlock];
    std::memcpy(w, block, blockBytes);
    Distinct d;
    for (const u32 x : w) {
        unsigned j = 0;
        while (j < d.n && d.word[j] != x)
            ++j;
        if (j == d.n) {
            d.word[d.n] = x;
            d.count[d.n++] = 0;
        }
        ++d.count[j];
    }
    return d;
}

u32
GdishDict::missing(const Distinct &d, u32 *at) const
{
    u32 n = 0;
    for (unsigned i = 0; i < d.n; ++i) {
        at[i] = probe(d.word[i]);
        n += slots[at[i]].refs == 0;
    }
    return n;
}

bool
GdishDict::compressible(const u8 *block) const
{
    u32 at[gdishWordsPerBlock];
    return used + missing(distinct(block), at) <= cap;
}

bool
GdishDict::acquire(const u8 *block)
{
    const Distinct d = distinct(block);
    u32 at[gdishWordsPerBlock];
    if (used + missing(d, at) > cap)
        return false;
    for (unsigned i = 0; i < d.n; ++i) {
        u32 s = at[i];
        if (slots[s].refs == 0 || slots[s].word != d.word[i]) {
            // Missing: its free slot may have gone to an earlier word
            // of this block, so take the next free one on the run.
            while (slots[s].refs != 0)
                s = (s + 1) & mask;
            slots[s].word = d.word[i];
            ++used;
            ++insertCount;
        }
        slots[s].refs += d.count[i];
    }
    return true;
}

void
GdishDict::release(const u8 *block)
{
    const Distinct d = distinct(block);
    for (unsigned i = 0; i < d.n; ++i) {
        const u32 s = probe(d.word[i]);
        DOPP_ASSERT(slots[s].refs >= d.count[i]);
        slots[s].refs -= d.count[i];
        if (slots[s].refs == 0) {
            eraseAt(s);
            ++eraseCount;
        }
    }
}

void
GdishDict::eraseAt(u32 hole)
{
    // Backward-shift deletion: pull back every later entry of the run
    // whose home does not lie strictly between the hole and its slot
    // (cyclically), so every key stays reachable without tombstones.
    for (u32 j = (hole + 1) & mask; slots[j].refs != 0;
         j = (j + 1) & mask) {
        const u32 h = homeSlot(slots[j].word);
        if (((j - h) & mask) >= ((j - hole) & mask)) {
            slots[hole] = slots[j];
            hole = j;
        }
    }
    slots[hole].refs = 0;
    --used;
}

bool
GdishDict::checkInvariants(std::string *why) const
{
    auto fail = [why](const char *msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (used > cap)
        return fail("gdish dict: size exceeds capacity");
    u32 live = 0;
    for (u32 s = 0; s < slots.size(); ++s) {
        if (slots[s].refs == 0)
            continue;
        ++live;
        if (probe(slots[s].word) != s)
            return fail("gdish dict: word unreachable from its home slot");
    }
    if (live != used)
        return fail("gdish dict: live-word count drifted");
    return true;
}

u64
GdishDict::totalRefs() const
{
    u64 n = 0;
    for (const Slot &s : slots)
        n += s.refs;
    return n;
}

GdishLlc::GdishLlc(MainMemory &memory, const GdishLlcConfig &config,
                   const ApproxRegistry *registry,
                   StatRegistry *stat_registry,
                   const std::string &stat_group)
    : CompressedSetLlc(memory, config, "gdish", registry, stat_registry,
                       stat_group),
      dict(config.dictEntries)
{
    if (config.dictEntries == 0)
        fatal("gdish llc: dictEntries must be non-zero");

    // Dictionary observability, under the organization's own subgroup
    // so sliced runs merge it like any other counter (DESIGN.md §15).
    StatGroup g = statGroup().group("gdish");
    compressedFills =
        &g.counter("compressedFills",
                   "blocks stored as dictionary indices");
    rawFills = &g.counter("rawFills",
                          "blocks stored uncompressed (dict full or "
                          "unshareable words)");
    GdishDict *d = &dict;
    g.counterFn(
        "dictWords", [d] { return static_cast<u64>(d->size()); },
        "distinct words currently materialized");
    g.counterFn(
        "dictInserts", [d] { return d->inserts(); },
        "lifetime dictionary insertions");
    g.counterFn(
        "dictErases", [d] { return d->erases(); },
        "dictionary entries freed at refcount zero");
}

unsigned
GdishLlc::admit(Slot s, unsigned)
{
    const bool compressed = dict.acquire(data(s));
    setFlag(s, kDictCompressed, compressed);
    ++*(compressed ? compressedFills : rawFills);
    return compressed ? gdishCompressedBlockBytes : blockBytes;
}

void
GdishLlc::release(Slot s)
{
    if (flag(s, kDictCompressed))
        dict.release(data(s));
    setFlag(s, kDictCompressed, false);
}

bool
GdishLlc::checkInvariants(std::string *why) const
{
    u64 compressedResident = 0;
    for (u32 set = 0; set < numSets(); ++set) {
        u64 bytes = 0;
        for (u32 way = 0; way < slotsPerSet(); ++way) {
            const Slot s = slotOf(set, way);
            if (!valid(s))
                continue;
            bytes += storedSize(s);
            const bool compressed = flag(s, kDictCompressed);
            const unsigned expect =
                compressed ? gdishCompressedBlockBytes : blockBytes;
            if (storedSize(s) != expect) {
                if (why)
                    *why = "gdish: entry size disagrees with its "
                           "compression state in set " +
                        std::to_string(set);
                return false;
            }
            compressedResident += compressed ? 1 : 0;
        }
        if (bytes != usedBytes(set)) {
            if (why)
                *why = "gdish: byte accounting drifted in set " +
                    std::to_string(set);
            return false;
        }
        if (usedBytes(set) > budget()) {
            if (why)
                *why = "gdish: set " + std::to_string(set) +
                    " exceeds its byte budget";
            return false;
        }
    }
    if (!dict.checkInvariants(why))
        return false;
    if (dict.totalRefs() !=
        compressedResident * gdishWordsPerBlock) {
        if (why)
            *why = "gdish: dictionary refcounts disagree with the "
                   "resident compressed blocks";
        return false;
    }
    return true;
}

} // namespace dopp
