/**
 * @file
 * The Doppelgänger cache (paper Sec 3): a last-level cache with
 * decoupled tag and approximate data arrays in which tags of
 * approximately similar blocks share a single data entry.
 *
 * Organization (Fig 4):
 *  - *Tag array*: indexed by physical address like a conventional tag
 *    array. Each entry holds the address tag, state/dirty bits, a map
 *    value, and prev/next tag pointers forming a doubly-linked list of
 *    all tags that share one data entry (Fig 5).
 *  - *Approximate data array with MTag array*: indexed by the *map*
 *    value — the low map bits select a set, the high bits are matched
 *    against the stored map tags. Each data entry holds the map tag, a
 *    pointer to the head of its tag list, and the 64 B data block.
 *
 * The simulator-side layout differs from the figures while modeling
 * the same hardware:
 *
 *  - Both lookup structures are SetAssocDir structure-of-arrays
 *    directories: a whole set's address tags (or MTags) occupy one
 *    contiguous run of u64 keys plus a flag byte per way, so a 16-way
 *    probe is a single batched pass over two cache lines instead of a
 *    stride over interleaved entry structs.
 *  - The per-tag fields (map value, prev/next list links) and the
 *    per-entry fields (list head, 64 B block) live in flat per-field
 *    arenas indexed by the same flattened `set * ways + way` slot —
 *    intrusive index pools, pre-allocated per set, so list maintenance
 *    touches exactly the fields it needs and the doubly-linked
 *    shared-data lists (Fig 5) chain arena indices, not pointers.
 *  - Each approximate tag caches the data slot its map resolves to, so
 *    a hit reads the slot instead of repeating the MTag probe on the
 *    host; the probe is still counted in mtagArray.reads.
 *  - No std::function on the access path: the map override is a plain
 *    function pointer (MapOverrideFn) and block iteration is a
 *    monomorphized template (visitBlocks) behind the virtual
 *    forEachBlock wrapper.
 *
 * The same class also implements the unified uniDoppelgänger variant
 * (Sec 3.8) when configured with `unified = true`: precise blocks get
 * an exclusive data entry addressed through a direct pointer in the
 * tag's map field, with prev/next permanently null.
 */

#ifndef DOPP_CORE_DOPPELGANGER_CACHE_HH
#define DOPP_CORE_DOPPELGANGER_CACHE_HH

#include <optional>

#include "core/dopp_engine.hh"
#include "sim/set_assoc.hh"
#include "util/types.hh"

namespace dopp
{

/**
 * Optimized Doppelgänger LLC implementation (structure-of-arrays).
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
 *
 * Every observable — StatRegistry snapshots, final contents, fault
 * draw/record traces, replacement decisions — is bit-identical to the
 * frozen reference engine kept under tests/, run as the ".ref"
 * organizations by tests/test_hotpath_diff.cc.
 */
class DoppelgangerCache : public DoppEngine
{
  public:
    /**
     * @param memory backing store
     * @param config geometry and behaviour knobs
     * @param registry annotation registry for element types/ranges;
     *                 may be nullptr (defaults apply to every block)
     * @param stat_registry registry to expose counters in; nullptr
     *                      gives the cache a private registry
     * @param stat_group dotted group path for this cache's counters
     */
    DoppelgangerCache(MainMemory &memory, const DoppConfig &config,
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

    void setHotPathProfile(HotPathProfile *p) override { prof = p; }

    u64 tagCount() const override { return tagDir.validCount(); }
    u64 dataCount() const override { return dataDir.validCount(); }
    unsigned tagsSharingWith(Addr addr) const override;
    bool sameDataEntry(Addr a, Addr b) const override;
    const u8 *peekBlock(Addr addr) const override;
    std::optional<u64> mapOf(Addr addr) const override;
    bool checkInvariants(std::string *why = nullptr) const override;
    bool selfCheckAndRepair() override;

  private:
    /** Test-only access to the arenas, to plant corruptions the fault
     * injector cannot aim (tests/test_doppelganger.cc). */
    friend struct DoppelgangerCacheProbe;

    /** @name Client flag bits (SetAssocDir bit 0 is the valid bit) */
    /// @{
    static constexpr u8 TagDirty = 2;   ///< per-tag dirty bit (Sec 3.4)
    static constexpr u8 TagPrecise = 4; ///< uniDoppelgänger precise tag
    static constexpr u8 DataPrecise = 2; ///< exclusive precise entry
    /// @}

    /** Flattened tag-slot index: set * ways + way. */
    i32 tagIndex(u32 set, u32 way) const;
    Addr tagAddr(i32 idx) const;

    /** Locate @p addr's tag slot (batched set probe). @return index
     * or -1. */
    i32 findTag(Addr addr) const;

    /** Data-array set a map value indexes. */
    u32 dataSetOfMap(u64 map) const;

    /** Locate the approximate data entry matching @p map (batched
     * MTag probe skipping precise entries). @return flattened index
     * (set * ways + way) or -1. */
    i32 findDataByMap(u64 map) const;

    /** Data entry a (valid) tag at @p tag_idx currently points at:
     * the direct pointer of a precise tag, the cached slot of an
     * approximate one (no MTag re-probe). */
    i32 dataIndexOfTag(i32 tag_idx) const;

    /** Insert @p tag_idx at the head of data entry @p data_idx's list
     * and cache @p data_idx as the tag's data slot. */
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
    void writebackTag(i32 tag_idx, i32 data_idx);

    /** Number of tags on the list of data entry @p data_idx, counting
     * at most @p cap (enough to compare victims cheaply). */
    u64 linkedTagCount(i32 data_idx, u64 cap = 64) const;

    /** Allocate (evicting as needed) a data entry in @p set. */
    i32 allocateDataEntry(u32 set);

    /** Handle the off-critical-path part of a fetch miss (Sec 3.3). */
    void insertBlock(Addr addr, const u8 *bytes);

    /**
     * The one placement rule for an approximate block (Sec 3.3 on an
     * insert, Sec 3.4 on a write that changes the map): link the
     * unlinked tag @p tidx to the data entry whose map is @p map,
     * reporting the substitution of @p bytes, or allocate that entry
     * (evicting as needed) and store @p bytes in it.
     */
    void linkByMap(i32 tidx, Addr addr, const u8 *bytes, u64 map);

    /** Monomorphized block iteration; forEachBlock wraps this with a
     * std::function for the virtual interface, internal callers pay
     * no type-erasure hop. */
    template <typename Visitor>
    void visitBlocks(Visitor &&visit) const;

    /** @name Fault injection and QoR reporting (src/fault) */
    /// @{

    /** Per-operation injector hook, run at every fetch/writeback:
     * draws data/metadata faults, applies them, and self-checks after
     * any structural mutation. */
    void injectFaults();

    /** Flip one bit of a (valid, approximate) data entry's 64 B. */
    void injectDataFault();

    /** Flip one tag-metadata bit (map, prev/next, dirty, precise),
     * targeting the arena-resident index fields directly.
     * @return whether the flip can break structural invariants. */
    bool injectTagMetaFault();

    /** Flip one MTag-metadata bit (map tag, head, precise).
     * @return whether the flip can break structural invariants. */
    bool injectMTagMetaFault();

    /** Rebuild all tag lists from surviving metadata (see
     * selfCheckAndRepair). @return {tags dropped, entries dropped}. */
    std::pair<u64, u64> repairMetadata();

    /** Report a fill/writeback substitution error to the guardrail:
     * the requester's exact @p exact bytes were replaced by data entry
     * @p data_idx's stored doppelgänger. */
    void observeSubstitution(Addr addr, const u8 *exact, i32 data_idx);

    /** Report an error-free operation to the guardrail. */
    void observeClean();
    /// @}

    /**
     * Address-tag directory (SoA): key = address tag; client flags
     * TagDirty / TagPrecise.
     */
    SetAssocDir tagDir;
    AddrSlicer tagSlicer;

    /**
     * MTag directory (SoA): key = full map value (block address for
     * precise entries); client flag DataPrecise.
     */
    SetAssocDir dataDir;

    /** @name Per-field arenas (intrusive index pools)
     * One slot per directory way, indexed by the flattened slot index;
     * "free" slots are simply the directory-invalid ones, so there is
     * no separate free list to maintain or corrupt. */
    /// @{
    std::vector<u64> tagMapV;  ///< map value / direct index if precise
    std::vector<i32> tagDataV; ///< data slot of an approximate tag, the
                               ///< entry its map resolves to (linkHead)
    std::vector<i32> tagPrevV; ///< previous tag in the shared-data list
    std::vector<i32> tagNextV; ///< next tag in the shared-data list
    std::vector<i32> dataHeadV; ///< head of each entry's tag list
    std::vector<BlockData> blocks; ///< 64 B payloads, separated from
                                   ///< the probed metadata
    /// @}

    /** Per-phase wall-clock sink (bench-only; null in normal runs). */
    HotPathProfile *prof = nullptr;
};

} // namespace dopp

#endif // DOPP_CORE_DOPPELGANGER_CACHE_HH
