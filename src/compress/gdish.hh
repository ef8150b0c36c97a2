/**
 * @file
 * GDISH-style global-dictionary compressed LLC, after DISH [Panda &
 * Seznec, MICRO 2016] generalized from per-superblock dictionaries to
 * one cache-wide dictionary: blocks whose sixteen 4-byte words all
 * resolve to dictionary entries store 2-byte indices instead of raw
 * words, so widely shared values (zeros, small integers, repeated
 * float constants) are materialized once for the whole cache. Where
 * B∆I exploits *intra-block* value locality and Doppelgänger
 * *inter-block approximate* similarity, GDISH exploits *inter-block
 * exact word* reuse — the third corner of the Fig 8 comparison.
 *
 * Model: a byte-budget compressed-set LLC like BdiLlc
 * (compress/compressed_set.hh). A block compresses to
 * `gdishCompressedBlockBytes` iff all of its words are already in the
 * dictionary or the dictionary has room for the new ones; otherwise
 * it is stored raw and leaves the dictionary untouched. Dictionary
 * entries are reference-counted by resident blocks and freed when the
 * last referencing block is evicted or overwritten, so the dictionary
 * tracks the live working set instead of filling up monotonically.
 */

#ifndef DOPP_COMPRESS_GDISH_HH
#define DOPP_COMPRESS_GDISH_HH

#include <string>
#include <vector>

#include "compress/compressed_set.hh"

namespace dopp
{

/** Dictionary word size: DISH shares 4-byte words. */
constexpr unsigned gdishWordBytes = 4;

/** Words per 64 B block. */
constexpr unsigned gdishWordsPerBlock = blockBytes / gdishWordBytes;

/**
 * Stored size of a dictionary-compressed block: one 2-byte dictionary
 * index per word plus a 2-byte header (valid bit, pointer-count tag —
 * the DISH metadata that lives in the tag in hardware).
 */
constexpr unsigned gdishCompressedBlockBytes =
    gdishWordsPerBlock * 2 + 2;

/**
 * The reference-counted global word dictionary, shared by the LLC
 * model and the Fig 8 snapshot analysis (analysis/similarity.cc) so
 * both report the same notion of "compressible".
 *
 * A flat open-addressing word → refcount table at load ≤ ½ (linear
 * probing, backward-shift deletion like CoherenceDirectory). A slot
 * with refcount zero is free, so every 32-bit word can be a key. A
 * block's sixteen words are de-duplicated on the stack first, so each
 * distinct word is probed once per acquire or release.
 */
class GdishDict
{
  public:
    explicit GdishDict(u32 capacity);

    /**
     * Can @p block compress against the current dictionary? True iff
     * every word is present or the distinct missing words fit in the
     * remaining capacity. Read-only (no insertion).
     */
    bool compressible(const u8 *block) const;

    /**
     * Acquire @p block's words: insert the missing ones and take one
     * reference on each of the sixteen (duplicated words take
     * multiple references). @return false — and leave the dictionary
     * untouched — when the block is not compressible.
     */
    bool acquire(const u8 *block);

    /** Drop the references acquire() took; entries reaching zero are
     * erased. @pre @p block was acquired and not yet released. */
    void release(const u8 *block);

    /** Distinct words currently materialized. */
    u32 size() const { return used; }

    u32 capacity() const { return cap; }

    /** Lifetime insert count (dictionary churn). */
    u64 inserts() const { return insertCount; }

    /** Lifetime erase count (entries freed at refcount zero). */
    u64 erases() const { return eraseCount; }

    /**
     * Structural self-check: the capacity bound holds, the live count
     * is exact, and every live word is reachable from its home slot
     * (no free slot and no duplicate on its probe run). @p why
     * receives the first violation.
     */
    bool checkInvariants(std::string *why = nullptr) const;

    /** Sum of all refcounts (must equal 16 × acquired blocks). */
    u64 totalRefs() const;

    /** @name Table geometry (tests build colliding words from it) */
    /// @{
    u32 slotCount() const { return static_cast<u32>(slots.size()); }

    /** The slot @p word's probe run starts at. */
    u32
    homeSlot(u32 word) const
    {
        return static_cast<u32>(
            (static_cast<u64>(word) * 0x9E3779B97F4A7C15ULL) >> shift);
    }
    /// @}

  private:
    struct Slot
    {
        u32 word;
        u32 refs; ///< 0: free slot
    };

    /** A block's distinct words and how often each occurs. */
    struct Distinct
    {
        u32 word[gdishWordsPerBlock];
        u32 count[gdishWordsPerBlock];
        unsigned n = 0;
    };

    static Distinct distinct(const u8 *block);

    /** Slot holding @p word, else the free slot ending its run. */
    u32
    probe(u32 word) const
    {
        u32 i = homeSlot(word);
        while (slots[i].refs != 0 && slots[i].word != word)
            i = (i + 1) & mask;
        return i;
    }

    /** Distinct words of @p d not in the table; @p at receives each
     * word's probe() slot. */
    u32 missing(const Distinct &d, u32 *at) const;

    /** Free slot @p hole, shifting its run back over it. */
    void eraseAt(u32 hole);

    u32 cap;
    std::vector<Slot> slots;
    u32 mask;
    unsigned shift;
    u32 used = 0;
    u64 insertCount = 0;
    u64 eraseCount = 0;
};

/** Configuration of the GDISH LLC (+1 dictionary indirection on hits
 * by default). */
struct GdishLlcConfig : CompressedSetConfig
{
    u32 dictEntries = 4096; ///< global dictionary capacity
};

/** Conventional-geometry LLC sharing words through a global
 * dictionary. Lossless. */
class GdishLlc : public CompressedSetLlc
{
  public:
    GdishLlc(MainMemory &memory, const GdishLlcConfig &config,
             const ApproxRegistry *registry,
             StatRegistry *stat_registry = nullptr,
             const std::string &stat_group = "llc");

    const char *name() const override { return "gdish"; }

    /** @name Introspection */
    /// @{
    const GdishDict &dictionary() const { return dict; }

    /**
     * Exhaustive structural check: per-set byte accounting matches
     * the resident entries, dictionary refcounts equal 16 × the
     * dictionary-compressed resident blocks, and the dictionary's own
     * invariants hold. Mirrors DoppEngine::checkInvariants for the
     * metadata-fault stress tests.
     */
    bool checkInvariants(std::string *why = nullptr) const;
    /// @}

  private:
    /** The policy flag: the slot's block holds dictionary refs. */
    static constexpr u8 kDictCompressed = kPolicyFlag;

    /** Worst case the block stays raw, so reserve 64 B; a compressed
     * install returns the surplus to the set right away. */
    unsigned reserve(const u8 *) override { return blockBytes; }
    unsigned admit(Slot s, unsigned room) override;
    void release(Slot s) override;

    GdishDict dict;
    Counter *compressedFills = nullptr;
    Counter *rawFills = nullptr;
};

} // namespace dopp

#endif // DOPP_COMPRESS_GDISH_HH
