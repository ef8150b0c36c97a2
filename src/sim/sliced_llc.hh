/**
 * @file
 * Sliced LLC front end (DESIGN.md §15): owns N independent sub-LLCs
 * and routes every access to exactly one of them by a SliceHash
 * policy (sim/slice_hash.hh), the way Intel physically shards its
 * last-level cache. The front end is organization-agnostic — the
 * factory (harness/llc_factory.hh) builds any registered organization
 * once per slice, so baseline, split/uni Doppelgänger, dedup and BDI
 * can all be sliced without per-organization edits.
 *
 * Determinism contract: each access goes to exactly one slice, on the
 * calling thread. Shared state (the backing memory, the fault
 * injector's Rng, the guardrail, inclusive back-invalidation into the
 * private caches) therefore sees the same serial access order as an
 * unsliced LLC.
 */

#ifndef DOPP_SIM_SLICED_LLC_HH
#define DOPP_SIM_SLICED_LLC_HH

#include <memory>
#include <vector>

#include "sim/llc.hh"
#include "sim/slice_hash.hh"

namespace dopp
{

/** N-slice LLC front end; a pure container like SplitLlc. */
class SlicedLlc : public LastLevelCache
{
  public:
    /**
     * @param slices one factory-built sub-LLC per slice (their
     *        counters already live under per-slice stat groups)
     * @param hash slice-selection policy
     */
    SlicedLlc(MainMemory &memory,
              std::vector<std::unique_ptr<LastLevelCache>> slices,
              SliceHashKind hash,
              StatRegistry *stat_registry = nullptr,
              const std::string &stat_group = "llc");

    FetchResult fetch(Addr addr, u8 *data) override;
    void writeback(Addr addr, const u8 *data) override;
    bool contains(Addr addr) const override;
    void forEachBlock(
        const std::function<void(const LlcBlockInfo &)> &visit)
        const override;
    void flush() override;
    const char *name() const override { return "sliced"; }

    void setBackInvalidate(BackInvalidateFn fn) override;
    void setFaultInjector(FaultInjector *fi) override;
    void setGuardrail(QorGuardrail *g) override;
    void setHotPathProfile(HotPathProfile *p) override;

    /** Field-wise sum of every slice's stats. */
    const LlcStats &stats() const override;
    void resetStats() override;

    /** @name Introspection */
    /// @{
    u32 sliceCount() const { return static_cast<u32>(subs.size()); }
    SliceHashKind hashKind() const { return hash; }

    /** Slice index @p addr routes to. */
    u32 sliceOfAddr(Addr addr) const
    {
        return sliceOf(addr, sliceCount(), hash);
    }

    LastLevelCache &slice(u32 i) { return *subs[i]; }
    const LastLevelCache &slice(u32 i) const { return *subs[i]; }
    /// @}

  private:
    std::vector<std::unique_ptr<LastLevelCache>> subs;
    SliceHashKind hash;
};

} // namespace dopp

#endif // DOPP_SIM_SLICED_LLC_HH
