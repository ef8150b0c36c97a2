/**
 * @file
 * The byte-budget compressed-set store shared by the lossless
 * compressed LLC baselines (BdiLlc, GdishLlc; DESIGN.md §17.5).
 *
 * Model: the set count matches an uncompressed cache of the same data
 * budget, each set holds up to `tagFactor × ways` tag entries, and
 * blocks occupy their stored size against a byte budget of
 * `ways × 64` per set. Insertions evict LRU entries until both a tag
 * slot and the bytes fit. Data is served losslessly.
 *
 * Layout: the tags (block addresses), LRU stamps and flag bytes live
 * in a SetAssocDir, so a probe reads one contiguous run per set; the
 * stored sizes, per-set used bytes and a 64 B-aligned block arena are
 * parallel arrays indexed by the same flattened `set × slots + way`
 * slot. Victims are the first LRU minimum among valid slots and
 * installs take the first invalid slot, both in slot order.
 *
 * An organization supplies only its size policy: how many bytes to
 * reserve before an install, what the installed block then costs, and
 * what to undo when a block leaves.
 */

#ifndef DOPP_COMPRESS_COMPRESSED_SET_HH
#define DOPP_COMPRESS_COMPRESSED_SET_HH

#include <string>
#include <vector>

#include "sim/llc.hh"

namespace dopp
{

/** Geometry and latencies of a byte-budget compressed LLC. */
struct CompressedSetConfig
{
    u64 sizeBytes = 2 * 1024 * 1024; ///< uncompressed-equivalent budget
    u32 ways = 16;                   ///< byte budget = ways × 64 per set
    u32 tagFactor = 2;               ///< tag entries per set = factor×ways
    Tick hitLatency = 6;             ///< + decompressLatency on hits
    Tick decompressLatency = 1;
};

/** Conventional-geometry LLC whose sets hold variable-size blocks. */
class CompressedSetLlc : public LastLevelCache
{
  public:
    FetchResult fetch(Addr addr, u8 *out) override;
    void writeback(Addr addr, const u8 *block) override;
    bool contains(Addr addr) const override;
    void forEachBlock(
        const std::function<void(const LlcBlockInfo &)> &visit)
        const override;
    void flush() override;
    void setHotPathProfile(HotPathProfile *p) override { prof = p; }

    /** @name Introspection */
    /// @{
    /** Blocks currently resident. */
    u64 blockCount() const { return dir.validCount(); }

    /** Stored bytes currently charged against the set budgets. */
    u64 storedBytes() const;

    /** Effective compression ratio of resident blocks (≥ 1). */
    double compressionRatio() const;
    /// @}

  protected:
    using Slot = i32;

    /** Flag bit left to the organization's size policy. */
    static constexpr u8 kPolicyFlag = 1 << 2;

    /** @p org names the organization in configuration errors. */
    CompressedSetLlc(MainMemory &memory, const CompressedSetConfig &config,
                     const char *org, const ApproxRegistry *registry,
                     StatRegistry *stat_registry,
                     const std::string &stat_group);

    /** @name Size policy */
    /// @{
    /** Bytes to make room for before @p block is installed. */
    virtual unsigned reserve(const u8 *block) = 0;

    /** Slot @p s now holds its new block, with @p room bytes
     * reserved for it. @return the stored size (≤ @p room). */
    virtual unsigned admit(Slot s, unsigned room) = 0;

    /** Slot @p s's block is about to leave (eviction or overwrite). */
    virtual void release(Slot) {}
    /// @}

    const u8 *data(Slot s) const { return blocks[index(s)].bytes; }
    unsigned storedSize(Slot s) const { return sizes[index(s)]; }
    bool flag(Slot s, u8 mask) const { return dir.flag(s, mask); }
    void setFlag(Slot s, u8 mask, bool on) { dir.setFlag(s, mask, on); }

    u32 numSets() const { return dir.sets(); }
    u32 slotsPerSet() const { return dir.ways(); }
    bool valid(Slot s) const { return dir.valid(s); }
    Slot
    slotOf(u32 set, u32 way) const
    {
        return static_cast<Slot>(set * dir.ways() + way);
    }
    u64 usedBytes(u32 set) const { return used[set]; }

    /** Byte budget of one set. */
    u64 budget() const { return static_cast<u64>(cfg.ways) * blockBytes; }

  private:
    static constexpr u8 kDirty = 1 << 1;

    /** One cache-line-aligned data block. */
    struct alignas(64) Block
    {
        u8 bytes[blockBytes];
    };

    static size_t index(Slot s) { return static_cast<size_t>(s); }

    /** Evict the LRU valid block of @p set. @pre one exists. */
    void evictLru(u32 set);

    /** Evict until @p room bytes and one tag slot fit in @p set. */
    void makeRoom(u32 set, unsigned room);

    CompressedSetConfig cfg;
    const ApproxRegistry *registry;
    SetAssocDir dir; ///< keys are block addresses
    AddrSlicer slicer;
    std::vector<u8> sizes;   ///< stored size per slot
    std::vector<u32> used;   ///< stored bytes per set
    std::vector<Block> blocks;
    HotPathProfile *prof = nullptr;
};

} // namespace dopp

#endif // DOPP_COMPRESS_COMPRESSED_SET_HH
