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
 * Model: conventional geometry like BdiLlc (set count of the
 * uncompressed budget, `tagFactor × ways` tags, byte budget of
 * `ways × 64` per set). A block compresses to
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
#include <unordered_map>
#include <vector>

#include "sim/llc.hh"

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
 */
class GdishDict
{
  public:
    explicit GdishDict(u32 capacity) : cap(capacity) {}

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
    u32 size() const { return static_cast<u32>(words.size()); }

    u32 capacity() const { return cap; }

    /** Lifetime insert count (dictionary churn). */
    u64 inserts() const { return insertCount; }

    /** Lifetime erase count (entries freed at refcount zero). */
    u64 erases() const { return eraseCount; }

    /**
     * Structural self-check: no zero-refcount entries, and the
     * capacity bound holds. @p why receives the first violation.
     */
    bool checkInvariants(std::string *why = nullptr) const;

    /** Sum of all refcounts (must equal 16 × acquired blocks). */
    u64 totalRefs() const;

  private:
    u32 cap;
    std::unordered_map<u32, u32> words; ///< word → refcount
    u64 insertCount = 0;
    u64 eraseCount = 0;
};

/** Configuration of the GDISH LLC. */
struct GdishLlcConfig
{
    u64 sizeBytes = 2 * 1024 * 1024; ///< uncompressed-equivalent budget
    u32 ways = 16;                   ///< byte budget = ways × 64 per set
    u32 tagFactor = 2;               ///< tag entries per set = factor×ways
    u32 dictEntries = 4096;          ///< global dictionary capacity
    Tick hitLatency = 6;             ///< +1 dictionary indirection on hits
    Tick decompressLatency = 1;
};

/** Conventional-geometry LLC sharing words through a global
 * dictionary. Lossless. */
class GdishLlc : public LastLevelCache
{
  public:
    GdishLlc(MainMemory &memory, const GdishLlcConfig &config,
             const ApproxRegistry *registry,
             StatRegistry *stat_registry = nullptr,
             const std::string &stat_group = "llc");

    FetchResult fetch(Addr addr, u8 *data) override;
    void writeback(Addr addr, const u8 *data) override;
    bool contains(Addr addr) const override;
    void forEachBlock(
        const std::function<void(const LlcBlockInfo &)> &visit)
        const override;
    void flush() override;
    const char *name() const override { return "gdish"; }
    void setHotPathProfile(HotPathProfile *p) override { prof = p; }

    /** @name Introspection */
    /// @{
    /** Blocks currently resident. */
    u64 blockCount() const;

    /** Compressed bytes currently stored against the byte budget. */
    u64 storedBytes() const;

    /** Effective compression ratio of resident blocks (≥ 1). */
    double compressionRatio() const;

    const GdishDict &dictionary() const { return dict; }

    /**
     * Exhaustive structural check: per-set byte accounting matches
     * the resident entries, dictionary refcounts equal 16 × the
     * dictionary-compressed resident blocks, and no dictionary entry
     * has refcount zero. Mirrors DoppEngine::checkInvariants for the
     * metadata-fault stress tests.
     */
    bool checkInvariants(std::string *why = nullptr) const;
    /// @}

  private:
    struct Entry
    {
        bool valid = false;
        u64 tag = 0;
        bool dirty = false;
        bool dictCompressed = false;
        unsigned size = blockBytes; ///< stored size in bytes
        u64 stamp = 0;              ///< LRU
        BlockData data = {};        ///< stored losslessly
    };

    struct Set
    {
        std::vector<Entry> entries;
        u64 usedBytes = 0;
    };

    Entry *find(Addr addr);
    const Entry *find(Addr addr) const;

    /** Release dictionary refs and invalidate @p e (no writeback). */
    void releaseEntry(Entry &e);

    /** Evict the LRU valid entry of @p set. @pre one exists. */
    void evictLru(Set &set, u32 set_idx);

    /** Evict until @p extra bytes and one tag slot fit in @p set. */
    void makeRoom(Set &set, u32 set_idx, unsigned extra);

    /** Install @p block into @p e, compressing if the dictionary
     * admits it; returns the stored size. */
    unsigned install(Entry &e, const u8 *block);

    GdishLlcConfig cfg;
    const ApproxRegistry *registry;
    std::vector<Set> sets;
    AddrSlicer slicer;
    GdishDict dict;
    u64 clock = 0;
    HotPathProfile *prof = nullptr;

    Counter *compressedFills = nullptr;
    Counter *rawFills = nullptr;
};

} // namespace dopp

#endif // DOPP_COMPRESS_GDISH_HH
