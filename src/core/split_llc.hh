/**
 * @file
 * The paper's split LLC organization (Sec 3, Table 1): a conventional
 * *precise* cache (1 MB, 16-way) alongside a Doppelgänger cache (1 MB
 * tag-equivalent, reduced data array). ISA-tagged approximate requests
 * are directed to the Doppelgänger half, everything else to the precise
 * half; we model the ISA tag with an ApproxRegistry address lookup.
 */

#ifndef DOPP_CORE_SPLIT_LLC_HH
#define DOPP_CORE_SPLIT_LLC_HH

#include <memory>

#include "core/dopp_engine.hh"
#include "sim/llc.hh"

namespace dopp
{

/** Configuration of the split organization. */
struct SplitLlcConfig
{
    /** Precise half (Table 1: 1 MB, 16-way, 6-cycle). */
    u64 preciseBytes = 1024 * 1024;
    u32 preciseWays = 16;
    Tick preciseLatency = 6;

    /** Doppelgänger half. */
    DoppConfig dopp;
};

/**
 * Split precise + Doppelgänger LLC. Stats are reported as the sum of
 * both halves; per-half breakdowns are available for the energy model.
 */
class SplitLlc : public LastLevelCache
{
  public:
    /**
     * @param stat_registry run-wide registry; the halves register
     *        under @p stat_group ".precise" / ".dopp", the split's
     *        routing counters under ".route", and an aggregate
     *        whole-LLC view directly under @p stat_group
     * @param make_engine builds the Doppelgänger half
     */
    SplitLlc(MainMemory &memory, const SplitLlcConfig &config,
             const ApproxRegistry &registry,
             StatRegistry *stat_registry = nullptr,
             const std::string &stat_group = "llc",
             DoppEngineMaker make_engine = makeDoppEngine);

    FetchResult fetch(Addr addr, u8 *data) override;
    void writeback(Addr addr, const u8 *data) override;
    bool contains(Addr addr) const override;
    void forEachBlock(
        const std::function<void(const LlcBlockInfo &)> &visit)
        const override;
    void flush() override;
    const char *name() const override { return "split-doppelganger"; }

    void setBackInvalidate(BackInvalidateFn fn) override;
    void setFaultInjector(FaultInjector *fi) override;
    void setGuardrail(QorGuardrail *g) override;
    void setHotPathProfile(HotPathProfile *p) override;
    const LlcStats &stats() const override;
    void resetStats() override;

    /** The precise half, for per-structure energy accounting. */
    const ConventionalLlc &precise() const { return *preciseLlc; }

    /** The Doppelgänger half. */
    const DoppEngine &doppelganger() const { return *doppLlc; }

    /** Non-const access for tests. */
    DoppEngine &doppelganger() { return *doppLlc; }

  private:
    const ApproxRegistry &registry;
    std::unique_ptr<ConventionalLlc> preciseLlc;
    std::unique_ptr<DoppEngine> doppLlc;
    Counter &degradedFillsCtr; ///< fills routed precise while degraded
    mutable LlcStats combined;
};

/** Sum two stats blocks field-wise (used by split/unified reporting). */
LlcStats addStats(const LlcStats &a, const LlcStats &b);

} // namespace dopp

#endif // DOPP_CORE_SPLIT_LLC_HH
