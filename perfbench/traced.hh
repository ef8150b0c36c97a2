/**
 * @file
 * Outside-in tracing of one run. The run's stack is rebuilt from the
 * simulator's public calls exactly as runWorkload builds it, so the
 * benchmark can put spans around stack set-up, workload->run and
 * StatRegistry::snapshot, and wrap the LLC in a decorator that times
 * every fetch, writeback and back-invalidation. A traced run
 * must reproduce runWorkload's snapshot and output exactly; the
 * benchmark checks that on every run.
 *
 * Hierarchy self time comes from a separate record-and-replay pass:
 * the access stream is captured through SimRuntime::accessHook and
 * replayed through MemorySystem::access over a traced baseline LLC.
 * The baseline LLC ignores data values, so the replay is exact for
 * baseline runs and an estimate for approximate organizations. The
 * recorded run carries the LLC's HotPathProfile, whose per-phase
 * timers would otherwise inflate the traced pass's LLC spans.
 */

#ifndef DOPP_PERFBENCH_TRACED_HH
#define DOPP_PERFBENCH_TRACED_HH

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim/llc.hh"

namespace perfbench
{

using dopp::u64;

/** Monotonic host time in nanoseconds. */
inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Aggregate of many spans of one kind: call count and total time. */
struct SpanTotal
{
    u64 count = 0;
    u64 ns = 0;

    void
    add(u64 duration)
    {
        ++count;
        ns += duration;
    }

    SpanTotal &
    operator+=(const SpanTotal &o)
    {
        count += o.count;
        ns += o.ns;
        return *this;
    }
};

/** Per-call LLC spans of one run. Back-invalidation runs inside a
 * fetch or writeback span: it is the hierarchy's callback, a child. */
struct LlcSpans
{
    SpanTotal fetchHit;
    SpanTotal fetchMiss;
    SpanTotal writeback;
    SpanTotal backInval;

    /** Time inside LLC calls, back-invalidation included. */
    u64 totalNs() const
    {
        return fetchHit.ns + fetchMiss.ns + writeback.ns;
    }

    /** LLC calls minus their back-invalidation children. */
    u64 selfNs() const { return totalNs() - backInval.ns; }

    LlcSpans &operator+=(const LlcSpans &o);
};

/** Decorator LLC: forwards every call to the organization it wraps
 * and records a span around each fetch and writeback, and around the
 * back-invalidation callback the hierarchy registers. */
class TracedLlc final : public dopp::LastLevelCache
{
  public:
    TracedLlc(dopp::MainMemory &memory,
              std::unique_ptr<dopp::LastLevelCache> inner, LlcSpans &spans);

    FetchResult fetch(dopp::Addr addr, dopp::u8 *data) override;
    void writeback(dopp::Addr addr, const dopp::u8 *data) override;
    bool contains(dopp::Addr addr) const override;
    void forEachBlock(
        const std::function<void(const dopp::LlcBlockInfo &)> &visit)
        const override;
    void flush() override;
    const char *name() const override { return inner->name(); }

    void setBackInvalidate(dopp::BackInvalidateFn fn) override;
    void setFaultInjector(dopp::FaultInjector *fi) override;
    void setGuardrail(dopp::QorGuardrail *g) override;
    void setHotPathProfile(dopp::HotPathProfile *p) override;
    const dopp::LlcStats &stats() const override;
    void resetStats() override;

  private:
    std::unique_ptr<dopp::LastLevelCache> inner;
    LlcSpans &spans;
};

/** One traced run: results plus its spans (host nanoseconds). */
struct TracedRun
{
    std::string label;
    dopp::StatSnapshot stats;
    std::vector<double> output;

    u64 startNs = 0;    ///< run span start
    u64 runNs = 0;      ///< whole run, stack teardown included
    u64 setupNs = 0;    ///< stack and workload construction
    u64 kernelNs = 0;   ///< workload->run
    u64 snapshotNs = 0; ///< StatRegistry::snapshot
    LlcSpans llc;
};

/** Run @p cfg on the rebuilt stack with the LLC decorated. */
TracedRun tracedRun(const dopp::RunConfig &cfg);

/** The record-and-replay pass of one run. */
struct ReplayRun
{
    u64 accesses = 0;  ///< replayed accesses
    u64 replayNs = 0;  ///< time inside MemorySystem::access
    LlcSpans llc;      ///< spans of the replay's baseline LLC
    dopp::StatSnapshot stats; ///< the replay stack's snapshot
    dopp::HotPathProfile phases; ///< the recorded run's LLC phases

    /** Replay time outside the LLC's own work: the hierarchy's. */
    u64 hierarchySelfNs() const { return replayNs - llc.selfNs(); }
};

/** Record @p cfg's access stream, with a HotPathProfile on its LLC,
 * and replay it through a fresh hierarchy over a traced baseline LLC,
 * in bounded chunks. */
ReplayRun recordAndReplay(const dopp::RunConfig &cfg);

} // namespace perfbench

#endif // DOPP_PERFBENCH_TRACED_HH
