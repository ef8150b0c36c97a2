/**
 * @file
 * SetAssocArray: the array-of-structs set-associative array the frozen
 * reference engines (doppelganger_ref.hh, hierarchy_ref.hh) are built
 * on. Test-only. Its replacement decisions are the contract that
 * SetAssocDir (sim/set_assoc.hh) reproduces for the optimized code;
 * SetAssocDir.ReplacementMatchesSetAssocArray pins the two together.
 */

#ifndef DOPP_TESTS_SET_ASSOC_ARRAY_HH
#define DOPP_TESTS_SET_ASSOC_ARRAY_HH

#include <vector>

#include "sim/set_assoc.hh"

namespace dopp
{

/**
 * Set-associative array of entries with LRU/FIFO/RANDOM replacement.
 *
 * @tparam Entry must expose `bool valid` and `u64 tag` members; all
 * other fields are the client's business.
 */
template <typename Entry>
class SetAssocArray
{
  public:
    /**
     * @param num_sets number of sets (any positive count; address-
     *        indexed clients additionally require a power of two via
     *        AddrSlicer, but map-indexed arrays may be fractional)
     * @param num_ways associativity
     * @param policy victim-selection policy
     */
    SetAssocArray(u32 num_sets, u32 num_ways,
                  ReplPolicy policy = ReplPolicy::LRU)
        : numSets(num_sets), numWays(num_ways), policy(policy),
          slots(static_cast<size_t>(num_sets) * num_ways),
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

    /** Entry at (@p set, @p way); bounds-checked in debug builds. */
    Entry &
    at(u32 set, u32 way)
    {
        DOPP_ASSERT(set < numSets && way < numWays);
        return slots[static_cast<size_t>(set) * numWays + way];
    }

    const Entry &
    at(u32 set, u32 way) const
    {
        DOPP_ASSERT(set < numSets && way < numWays);
        return slots[static_cast<size_t>(set) * numWays + way];
    }

    /**
     * Find the valid entry in @p set whose tag equals @p tag.
     * Does not touch replacement state.
     * @return way index, or -1 if not present.
     */
    int
    findWay(u32 set, u64 tag) const
    {
        for (u32 w = 0; w < numWays; ++w) {
            const Entry &e = at(set, w);
            if (e.valid && e.tag == tag)
                return static_cast<int>(w);
        }
        return -1;
    }

    /**
     * Choose a victim way in @p set: an invalid way if one exists,
     * otherwise per the replacement policy.
     */
    u32
    victimWay(u32 set)
    {
        for (u32 w = 0; w < numWays; ++w) {
            if (!at(set, w).valid)
                return w;
        }
        if (policy == ReplPolicy::RANDOM)
            return static_cast<u32>(rng.below(numWays));
        // LRU and FIFO: smallest stamp.
        u32 victim = 0;
        u64 best = stamp(set, 0);
        for (u32 w = 1; w < numWays; ++w) {
            if (stamp(set, w) < best) {
                best = stamp(set, w);
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
            setStamp(set, way, ++clock);
    }

    /** Record an insertion at (@p set, @p way); updates all policies. */
    void
    touchInsert(u32 set, u32 way)
    {
        setStamp(set, way, ++clock);
    }

    /**
     * Set the validity of (@p set, @p way). All validity transitions
     * must flow through here (or invalidateAll) so the maintained
     * valid-entry counter stays exact; writing `entry.valid` directly
     * desyncs validCount(). A no-op when the state already matches.
     */
    void
    setValid(u32 set, u32 way, bool v)
    {
        Entry &e = at(set, way);
        if (e.valid == v)
            return;
        if (v)
            ++numValid;
        else
            --numValid;
        e.valid = v;
    }

    /** Invalidate every entry (replacement state is reset too). */
    void
    invalidateAll()
    {
        for (auto &s : slots)
            s.valid = false;
        for (auto &st : stamps)
            st = 0;
        clock = 0;
        numValid = 0;
    }

    /** Count of valid entries across the whole array (maintained
     * incrementally; O(1)). */
    u64
    validCount() const
    {
        return numValid;
    }

  private:
    u64
    stamp(u32 set, u32 way) const
    {
        return stamps[static_cast<size_t>(set) * numWays + way];
    }

    void
    setStamp(u32 set, u32 way, u64 v)
    {
        stamps[static_cast<size_t>(set) * numWays + way] = v;
    }

    u32 numSets;
    u32 numWays;
    ReplPolicy policy;
    std::vector<Entry> slots;
    std::vector<u64> stamps;
    u64 clock = 0;
    u64 numValid = 0;
    Rng rng;
};

} // namespace dopp

#endif // DOPP_TESTS_SET_ASSOC_ARRAY_HH
