/**
 * @file
 * Set-associative directory with pluggable replacement, the lookup
 * structure of every cache (private L1/L2, the LLCs, the Doppelgänger
 * tag and MTag arrays), and the address-to-(set, tag) slicer.
 */

#ifndef DOPP_SIM_SET_ASSOC_HH
#define DOPP_SIM_SET_ASSOC_HH

#include <vector>

#include "util/bitfield.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace dopp
{

/** Replacement policy selector for a SetAssocDir. */
enum class ReplPolicy : u8
{
    LRU,    ///< least-recently-used (the paper's policy, Sec 3.5)
    FIFO,   ///< first-in-first-out (stamp set only on insert)
    RANDOM, ///< uniform random victim
};

/** Human-readable policy name. */
inline const char *
replPolicyName(ReplPolicy p)
{
    switch (p) {
      case ReplPolicy::LRU: return "lru";
      case ReplPolicy::FIFO: return "fifo";
      case ReplPolicy::RANDOM: return "random";
    }
    return "?";
}

/**
 * Structure-of-arrays set-associative *directory*. It stores only
 * what a probe touches — a contiguous per-set run of 64-bit keys plus
 * one flag byte per way — so a full-set compare reads two or three
 * cache lines and the compiler can unroll/vectorize the key loop.
 * Client payloads (map values, list links, data blocks) live in the
 * owner's own parallel arrays, indexed by the same flattened
 * `set * ways + way` slot. Victim choices match the frozen test
 * references' array-of-structs array (tests/set_assoc_array.hh).
 *
 * Flag byte layout: bit 0 is the valid bit and is owned by the
 * directory (all transitions flow through setValid/invalidateAll so
 * validCount() stays exact); bits 1..7 are the client's (dirty,
 * precise, ...), read/written through flags()/setFlag().
 */
class SetAssocDir
{
  public:
    /** Valid bit of the per-way flag byte (directory-owned). */
    static constexpr u8 kValid = 1;

    SetAssocDir(u32 num_sets, u32 num_ways,
                ReplPolicy policy = ReplPolicy::LRU)
        : numSets(num_sets), numWays(num_ways), policy(policy),
          keys(static_cast<size_t>(num_sets) * num_ways, 0),
          flagsV(static_cast<size_t>(num_sets) * num_ways, 0),
          stamps(static_cast<size_t>(num_sets) * num_ways, 0),
          rng(0xD0BBE16A)
    {
        if (num_sets == 0)
            fatal("set count must be non-zero");
        if (num_ways == 0)
            fatal("associativity must be non-zero");
    }

    u32 sets() const { return numSets; }
    u32 ways() const { return numWays; }

    /** Flattened slot index of (@p set, @p way). */
    i32
    index(u32 set, u32 way) const
    {
        DOPP_ASSERT(set < numSets && way < numWays);
        return static_cast<i32>(set * numWays + way);
    }

    u64 key(i32 idx) const { return keys[slot(idx)]; }
    void setKey(i32 idx, u64 k) { keys[slot(idx)] = k; }

    bool valid(i32 idx) const { return flagsV[slot(idx)] & kValid; }

    /** The whole flag byte (valid bit plus client bits). */
    u8 flags(i32 idx) const { return flagsV[slot(idx)]; }

    /** Test one client flag bit. */
    bool flag(i32 idx, u8 mask) const { return flagsV[slot(idx)] & mask; }

    /** Set/clear client flag bits (@p mask must not include kValid). */
    void
    setFlag(i32 idx, u8 mask, bool on)
    {
        DOPP_ASSERT(!(mask & kValid));
        if (on)
            flagsV[slot(idx)] |= mask;
        else
            flagsV[slot(idx)] &= static_cast<u8>(~mask);
    }

    /** Set validity, keeping the incremental valid count exact. A
     * no-op when the state already matches. */
    void
    setValid(i32 idx, bool v)
    {
        u8 &f = flagsV[slot(idx)];
        if (static_cast<bool>(f & kValid) == v)
            return;
        if (v) {
            f |= kValid;
            ++numValid;
        } else {
            f &= static_cast<u8>(~kValid);
            --numValid;
        }
    }

    /**
     * Find the valid way in @p set whose key equals @p k: the batched
     * probe. The key run is contiguous, so the whole set compares in
     * one pass over `ways` consecutive u64s; does not touch
     * replacement state. @return way index, or -1.
     */
    int
    findWay(u32 set, u64 k) const
    {
        const size_t base = static_cast<size_t>(set) * numWays;
        const u64 *kp = keys.data() + base;
        const u8 *fp = flagsV.data() + base;
        for (u32 w = 0; w < numWays; ++w) {
            if ((fp[w] & kValid) && kp[w] == k)
                return static_cast<int>(w);
        }
        return -1;
    }

    /**
     * As findWay, but additionally requiring (flags & @p mask) ==
     * @p want — e.g. "valid and not precise" for MTag probes that
     * must skip precise entries sharing the set.
     */
    int
    findWayFlags(u32 set, u64 k, u8 mask, u8 want) const
    {
        const size_t base = static_cast<size_t>(set) * numWays;
        const u64 *kp = keys.data() + base;
        const u8 *fp = flagsV.data() + base;
        for (u32 w = 0; w < numWays; ++w) {
            if ((fp[w] & mask) == want && kp[w] == k)
                return static_cast<int>(w);
        }
        return -1;
    }

    /** First invalid way in @p set, or -1 when the set is full. */
    int
    freeWay(u32 set) const
    {
        const u8 *fp = flagsV.data() + static_cast<size_t>(set) * numWays;
        for (u32 w = 0; w < numWays; ++w) {
            if (!(fp[w] & kValid))
                return static_cast<int>(w);
        }
        return -1;
    }

    /**
     * Valid way in @p set with the oldest stamp (the first of equal
     * stamps), or -1 when the set is empty. Unlike victimWay it skips
     * invalid ways, for owners that evict to free more than a way
     * (the byte-budget compressed sets).
     */
    int
    oldestValidWay(u32 set) const
    {
        const size_t base = static_cast<size_t>(set) * numWays;
        const u8 *fp = flagsV.data() + base;
        const u64 *sp = stamps.data() + base;
        int victim = -1;
        for (u32 w = 0; w < numWays; ++w) {
            if ((fp[w] & kValid) && (victim < 0 || sp[w] < sp[victim]))
                victim = static_cast<int>(w);
        }
        return victim;
    }

    /** Victim way in @p set: first invalid way, else per policy. */
    u32
    victimWay(u32 set)
    {
        const size_t base = static_cast<size_t>(set) * numWays;
        if (const int w = freeWay(set); w >= 0)
            return static_cast<u32>(w);
        if (policy == ReplPolicy::RANDOM)
            return static_cast<u32>(rng.below(numWays));
        u32 victim = 0;
        u64 best = stamps[base];
        for (u32 w = 1; w < numWays; ++w) {
            if (stamps[base + w] < best) {
                best = stamps[base + w];
                victim = w;
            }
        }
        return victim;
    }

    /** Record a use of (@p set, @p way); LRU only (FIFO ignores it). */
    void
    touch(u32 set, u32 way)
    {
        if (policy == ReplPolicy::LRU)
            stamps[static_cast<size_t>(set) * numWays + way] = ++clock;
    }

    /** Record @p uses back-to-back uses of (@p set, @p way): the stamp
     * and clock that @p uses touch() calls leave. LRU only. */
    void
    touch(u32 set, u32 way, u64 uses)
    {
        if (policy == ReplPolicy::LRU)
            stamps[static_cast<size_t>(set) * numWays + way] =
                clock += uses;
    }

    /** Record an insertion at (@p set, @p way); updates all policies. */
    void
    touchInsert(u32 set, u32 way)
    {
        stamps[static_cast<size_t>(set) * numWays + way] = ++clock;
    }

    /** Invalidate every entry (flags, stamps and clock reset). */
    void
    invalidateAll()
    {
        for (auto &f : flagsV)
            f = 0;
        for (auto &st : stamps)
            st = 0;
        clock = 0;
        numValid = 0;
    }

    /** Count of valid entries (maintained incrementally; O(1)). */
    u64 validCount() const { return numValid; }

  private:
    size_t
    slot(i32 idx) const
    {
        DOPP_ASSERT(idx >= 0 &&
                    static_cast<size_t>(idx) < keys.size());
        return static_cast<size_t>(idx);
    }

    u32 numSets;
    u32 numWays;
    ReplPolicy policy;
    std::vector<u64> keys;
    std::vector<u8> flagsV;
    std::vector<u64> stamps;
    u64 clock = 0;
    u64 numValid = 0;
    Rng rng;
};

/**
 * Address-to-(set, tag) slicing for a block-grained structure with
 * @p numSets sets: set = addr[6 + log2(sets) - 1 : 6], tag = higher bits.
 */
struct AddrSlicer
{
    explicit AddrSlicer(u32 num_sets)
        : setBits(floorLog2(num_sets))
    {
        DOPP_ASSERT(isPowerOf2(num_sets));
    }

    u32
    set(Addr a) const
    {
        if (setBits == 0)
            return 0;
        return static_cast<u32>((a >> blockOffsetBits) & lowMask(setBits));
    }

    u64
    tag(Addr a) const
    {
        return a >> (blockOffsetBits + setBits);
    }

    /** Rebuild a block address from (set, tag). */
    Addr
    addr(u32 set_idx, u64 tag_val) const
    {
        return (tag_val << (blockOffsetBits + setBits)) |
            (static_cast<Addr>(set_idx) << blockOffsetBits);
    }

    unsigned setBits;
};

} // namespace dopp

#endif // DOPP_SIM_SET_ASSOC_HH
