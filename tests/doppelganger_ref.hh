/**
 * @file
 * Reference Doppelgänger engine: the original array-of-structs
 * implementation, preserved verbatim as the behavioural oracle for
 * the simulator's engine (core/doppelganger_cache.hh). Test-only.
 *
 * Organization (paper Fig 4):
 *  - *Tag array*: a SetAssocArray of TagEntry structs — address tag,
 *    state/dirty bits, map value and prev/next tag pointers forming a
 *    doubly-linked list of all tags sharing one data entry (Fig 5).
 *  - *Approximate data array with MTag array*: a SetAssocArray of
 *    DataEntry structs — map tag, list-head pointer and the 64 B data
 *    block, interleaved per entry.
 *
 * Every probe here strides whole entries (the layout the paper's
 * figures draw), which is exactly the pointer-chasing cost the
 * optimized engine removes. Keep this file frozen: the differential
 * suites (tests/test_hotpath_diff.cc) derive their authority from it
 * staying the original code.
 *
 * registerRefLlcs() plugs it into the LLC factory: every built-in
 * organization that wraps a Doppelgänger engine gets a ".ref" twin
 * ("split-doppelganger.ref", ...) that runWorkload runs by name.
 */

#ifndef DOPP_TESTS_DOPPELGANGER_REF_HH
#define DOPP_TESTS_DOPPELGANGER_REF_HH

#include <optional>

#include "core/dopp_engine.hh"
#include "set_assoc_array.hh"
#include "util/types.hh"

namespace dopp
{

/**
 * Reference Doppelgänger LLC implementation (array-of-structs).
 *
 * Faithfully implements the paper's operational semantics:
 *  - Lookups (Sec 3.2): sequential tag-array then MTag-array probe; a
 *    tag hit guarantees an MTag hit.
 *  - Insertions (Sec 3.3): data is forwarded to the upper levels
 *    immediately (the requester sees the *fetched* values); map
 *    generation and data-array placement happen off the critical path.
 *    If a similar block exists the new tag joins its list and the
 *    fetched data is dropped; otherwise a data victim is evicted along
 *    with every tag linked to it.
 *  - Writes (Sec 3.4): writebacks recompute the map. An unchanged map
 *    only sets the tag's dirty bit; a changed map moves the tag to the
 *    new map's list (the written values are dropped if a similar block
 *    already exists there).
 *  - Replacements (Sec 3.5): per-tag dirty bits; evicting a data entry
 *    evicts and writes back all linked tags; a sole tag's eviction
 *    frees its data entry. LRU in both arrays by default.
 */
class RefDoppelgangerCache : public DoppEngine
{
  public:
    RefDoppelgangerCache(MainMemory &memory, const DoppConfig &config,
                         const ApproxRegistry *registry,
                         StatRegistry *stat_registry = nullptr,
                         const std::string &stat_group = "llc.dopp");

    FetchResult fetch(Addr addr, u8 *data) override;
    void writeback(Addr addr, const u8 *data) override;
    bool contains(Addr addr) const override;
    void forEachBlock(
        const std::function<void(const LlcBlockInfo &)> &visit)
        const override;
    void flush() override;

    u64 tagCount() const override { return tags.validCount(); }
    u64 dataCount() const override { return data.validCount(); }
    unsigned tagsSharingWith(Addr addr) const override;
    bool sameDataEntry(Addr a, Addr b) const override;
    const u8 *peekBlock(Addr addr) const override;
    std::optional<u64> mapOf(Addr addr) const override;
    bool checkInvariants(std::string *why = nullptr) const override;
    bool selfCheckAndRepair() override;

  private:
    /** Tag-array entry (77 bits in hardware, Table 3). */
    struct TagEntry
    {
        bool valid = false;
        u64 tag = 0;        ///< address tag
        bool dirty = false; ///< per-tag dirty bit (Sec 3.4)
        bool precise = false; ///< uniDoppelgänger precise/approx bit
        u64 map = 0;        ///< map value, or direct index if precise
        i32 prev = -1;      ///< previous tag in the shared-data list
        i32 next = -1;      ///< next tag in the shared-data list
    };

    /** Data-array entry with its MTag fields (Fig 4 right side). */
    struct DataEntry
    {
        bool valid = false;
        u64 tag = 0;        ///< full map value (block address if precise)
        bool precise = false;
        i32 head = -1;      ///< tag pointer to the list head
        BlockData data = {};
    };

    /** Flattened tag-entry index: set * ways + way. */
    i32 tagIndex(u32 set, u32 way) const;
    TagEntry &tagAt(i32 idx);
    const TagEntry &tagAt(i32 idx) const;
    Addr tagAddr(i32 idx) const;

    /** Locate @p addr's tag entry. @return index or -1. */
    i32 findTag(Addr addr) const;

    /** Data-array set a map value indexes. */
    u32 dataSetOfMap(u64 map) const;

    /** Locate the data entry matching @p map. @return flattened index
     * (set * ways + way) or -1. */
    i32 findDataByMap(u64 map) const;
    DataEntry &dataAt(i32 idx);
    const DataEntry &dataAt(i32 idx) const;

    /** Data entry a (valid) tag currently points at. */
    i32 dataIndexOfTag(const TagEntry &t) const;

    /** Insert @p tag_idx at the head of data entry @p data_idx's list. */
    void linkHead(i32 tag_idx, i32 data_idx);

    /** Remove @p tag_idx from its list. @return true iff the list is
     * now empty (caller decides the data entry's fate). */
    bool unlink(i32 tag_idx, i32 data_idx);

    /** Evict the data entry at @p data_idx: write back and invalidate
     * every linked tag (Sec 3.5). */
    void evictDataEntry(i32 data_idx);

    /** Evict a single tag entry, freeing its data entry if sole. */
    void evictTagEntry(i32 tag_idx);

    /** Write @p tag_idx's block back to memory if needed (on evict).
     * Private dirty copies supersede the shared data entry. */
    void writebackTag(i32 tag_idx, const DataEntry &entry);

    /** Number of tags on the list of data entry @p data_idx, counting
     * at most @p cap (enough to compare victims cheaply). */
    u64 linkedTagCount(i32 data_idx, u64 cap = 64) const;

    /** Allocate (evicting as needed) a data entry in @p set. */
    i32 allocateDataEntry(u32 set);

    /** Handle the off-critical-path part of a fetch miss (Sec 3.3). */
    void insertBlock(Addr addr, const u8 *bytes);

    /** @name Fault injection and QoR reporting (src/fault) */
    /// @{

    /** Per-operation injector hook, run at every fetch/writeback:
     * draws data/metadata faults, applies them, and self-checks after
     * any structural mutation. */
    void injectFaults();

    /** Flip one bit of a (valid, approximate) data entry's 64 B. */
    void injectDataFault();

    /** Flip one tag-metadata bit (map, prev/next, dirty, precise).
     * @return whether the flip can break structural invariants. */
    bool injectTagMetaFault();

    /** Flip one MTag-metadata bit (map tag, head, precise).
     * @return whether the flip can break structural invariants. */
    bool injectMTagMetaFault();

    /** Rebuild all tag lists from surviving metadata (see
     * selfCheckAndRepair). @return {tags dropped, entries dropped}. */
    std::pair<u64, u64> repairMetadata();

    /** Report a fill/writeback substitution error to the guardrail:
     * the requester's exact @p exact bytes were replaced by entry
     * @p d's stored doppelgänger. */
    void observeSubstitution(Addr addr, const u8 *exact,
                             const DataEntry &d);

    /** Report an error-free operation to the guardrail. */
    void observeClean();
    /// @}

    /** Set a tag entry's validity by flattened index, keeping the
     * array's incremental valid count exact. */
    void
    setTagValid(i32 idx, bool v)
    {
        tags.setValid(static_cast<u32>(idx) / cfg.tagWays,
                      static_cast<u32>(idx) % cfg.tagWays, v);
    }

    /** Set a data entry's validity by flattened index. */
    void
    setDataValid(i32 idx, bool v)
    {
        data.setValid(static_cast<u32>(idx) / cfg.dataWays,
                      static_cast<u32>(idx) % cfg.dataWays, v);
    }

    SetAssocArray<TagEntry> tags;
    AddrSlicer tagSlicer;

    SetAssocArray<DataEntry> data;
};

/** Construct a RefDoppelgangerCache (a DoppEngineMaker). */
std::unique_ptr<DoppEngine>
makeRefDoppEngine(MainMemory &memory, const DoppConfig &config,
                  const ApproxRegistry *registry,
                  StatRegistry *stat_registry = nullptr,
                  const std::string &stat_group = "llc.dopp");

/** Register the ".ref" organizations, after the built-ins; idempotent. */
void registerRefLlcs();

} // namespace dopp

#endif // DOPP_TESTS_DOPPELGANGER_REF_HH
