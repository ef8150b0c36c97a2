#include "traced.hh"

#include <algorithm>
#include <cmath>

#include "harness/llc_factory.hh"
#include "sim/hierarchy.hh"
#include "sweeps.hh"
#include "util/logging.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace dopp;

LlcSpans &
LlcSpans::operator+=(const LlcSpans &o)
{
    fetchHit += o.fetchHit;
    fetchMiss += o.fetchMiss;
    writeback += o.writeback;
    backInval += o.backInval;
    return *this;
}

TracedLlc::TracedLlc(MainMemory &memory,
                     std::unique_ptr<LastLevelCache> inner_llc,
                     LlcSpans &span_sink)
    : LastLevelCache(memory, nullptr, "traced"),
      inner(std::move(inner_llc)), spans(span_sink)
{
}

LastLevelCache::FetchResult
TracedLlc::fetch(Addr addr, u8 *data)
{
    const u64 start = nowNs();
    const FetchResult r = inner->fetch(addr, data);
    (r.hit ? spans.fetchHit : spans.fetchMiss).add(nowNs() - start);
    return r;
}

void
TracedLlc::writeback(Addr addr, const u8 *data)
{
    const u64 start = nowNs();
    inner->writeback(addr, data);
    spans.writeback.add(nowNs() - start);
}

bool
TracedLlc::contains(Addr addr) const
{
    return inner->contains(addr);
}

void
TracedLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    inner->forEachBlock(visit);
}

void
TracedLlc::flush()
{
    inner->flush();
}

void
TracedLlc::setBackInvalidate(BackInvalidateFn fn)
{
    inner->setBackInvalidate(
        [fn = std::move(fn), &sink = spans](Addr addr, u8 *data) {
            const u64 start = nowNs();
            const bool dirty = fn(addr, data);
            sink.backInval.add(nowNs() - start);
            return dirty;
        });
}

void
TracedLlc::setFaultInjector(FaultInjector *fi)
{
    inner->setFaultInjector(fi);
}

void
TracedLlc::setGuardrail(QorGuardrail *g)
{
    inner->setGuardrail(g);
}

void
TracedLlc::setHotPathProfile(HotPathProfile *p)
{
    inner->setHotPathProfile(p);
}

const LlcStats &
TracedLlc::stats() const
{
    return inner->stats();
}

void
TracedLlc::resetStats()
{
    inner->resetStats();
}

namespace
{

/** Normalized error of a bit flip, clamped like runWorkload's hooks. */
double
clampedError(double before, double after, const ApproxRegion &region)
{
    double err =
        std::abs(after - before) / std::max(region.span(), 1e-30);
    if (!std::isfinite(err) || err > 1.0)
        err = 1.0;
    return err;
}

/**
 * The stack runWorkload builds, in runWorkload's order (registration
 * order is snapshot order, so the order is part of the contract),
 * optionally with the LLC wrapped in a TracedLlc. The benchmark's
 * configurations use neither traces nor periodic snapshots.
 */
class Stack
{
  public:
    Stack(const RunConfig &cfg, LlcSpans *spans)
        : memory(cfg.memTier)
    {
        if (!cfg.tracePath.empty() || cfg.snapshotPeriod || cfg.abortFlag)
            fatal("perfbench: traced runs take no trace, snapshot hook "
                  "or abort flag");
        memory.registerStats(statReg.group("mem"));
        LlcBuilt built =
            buildLlc(cfg.llcName, memory, registry, cfg, statReg);
        const std::vector<const DoppEngine *> doppViews = built.dopps;
        if (spans) {
            llc = std::make_unique<TracedLlc>(memory, std::move(built.llc),
                                              *spans);
        } else {
            llc = std::move(built.llc);
        }

        if (cfg.fault.enabled() || cfg.memTier.anyFaultRate()) {
            injector = std::make_unique<FaultInjector>(cfg.fault);
            injector->registerStats(statReg.group("fault"));
        }
        if (cfg.qor.enabled()) {
            guard = std::make_unique<QorGuardrail>(cfg.qor);
            guard->registerStats(statReg.group("qor"));
        }
        if (injector && cfg.memTier.enabled()) {
            memory.setFaultInjector(injector.get());
            QorGuardrail *g = guard.get();
            memory.onBitFlip = [g, this](Addr addr, u8 *block, u32 bit,
                                         u32) {
                const ApproxRegion *region =
                    g ? registry.find(addr) : nullptr;
                if (!region)
                    return;
                const unsigned elem = bit / elemBits(region->type);
                const double after =
                    blockElement(block, region->type, elem);
                block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
                const double before =
                    blockElement(block, region->type, elem);
                block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
                g->observeError(clampedError(before, after, *region));
            };
        }
        if (guard && cfg.memTier.enabled() && cfg.qor.migrateFactor > 0.0) {
            guard->onMigrate = [this](bool migrate) {
                if (migrate)
                    memory.migrateApproxToPrecise();
                else
                    memory.restoreApproxRoutes();
            };
        }
        if (injector) {
            llc->setFaultInjector(injector.get());
            if (cfg.fault.memoryRate > 0.0 && !cfg.memTier.enabled()) {
                FaultInjector *fi = injector.get();
                QorGuardrail *g = guard.get();
                memory.faultHook = [fi, g, this](Addr addr, u8 *block) {
                    const ApproxRegion *region = registry.find(addr);
                    if (!region || !fi->draw(FaultDomain::MemoryData))
                        return;
                    const u32 bit =
                        static_cast<u32>(fi->pick(blockBytes * 8));
                    const unsigned elem = bit / elemBits(region->type);
                    const double before =
                        blockElement(block, region->type, elem);
                    block[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
                    const double after =
                        blockElement(block, region->type, elem);
                    fi->record(FaultDomain::MemoryData, addr, 0, bit);
                    if (g)
                        g->observeError(
                            clampedError(before, after, *region));
                };
            }
        }
        if (guard)
            llc->setGuardrail(guard.get());

        system = std::make_unique<MemorySystem>(HierarchyConfig{}, *llc,
                                                memory, &statReg,
                                                "hierarchy");
        rt = std::make_unique<SimRuntime>(*system, memory, registry);

        StatGroup runGroup = statReg.group("run");
        runGroup.counterFn(
            "runtimeCycles", [r = rt.get()] { return r->runtime(); },
            "slowest core's cycles");
        runGroup.formula(
            "tagsPerDataEntry",
            [doppViews] {
                u64 tags = 0;
                u64 entries = 0;
                for (const DoppEngine *d : doppViews) {
                    tags += d->tagCount();
                    entries += d->dataCount();
                }
                return entries ? static_cast<double>(tags) /
                        static_cast<double>(entries)
                               : 0.0;
            },
            "end-of-run occupancy: tags per valid data entry");
    }

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    SimRuntime &runtime() { return *rt; }
    LastLevelCache &lastLevel() { return *llc; }
    StatSnapshot snapshot() const { return statReg.snapshot(); }

  private:
    StatRegistry statReg;
    MainMemory memory;
    ApproxRegistry registry;
    std::unique_ptr<LastLevelCache> llc;
    std::unique_ptr<FaultInjector> injector;
    std::unique_ptr<QorGuardrail> guard;
    std::unique_ptr<MemorySystem> system;
    std::unique_ptr<SimRuntime> rt;
};

/** One recorded access; stores carry their bytes in payload. */
struct AccessRecord
{
    Addr addr;
    u64 payload;
    CoreId core;
    u8 size;
    bool isWrite;
};

/** Records per replay chunk: bounds the recorder's memory while
 * keeping each timed replay long enough to be measured cleanly. */
constexpr size_t replayChunk = size_t{1} << 19;

} // namespace

TracedRun
tracedRun(const RunConfig &cfg)
{
    TracedRun r;
    r.label = runLabel(cfg);
    r.startNs = nowNs();
    {
        Stack stack(cfg, &r.llc);
        auto workload = makeWorkload(cfg.workloadName, cfg.workload);
        const u64 kernelStart = nowNs();
        r.setupNs = kernelStart - r.startNs;
        workload->run(stack.runtime());
        const u64 snapStart = nowNs();
        r.kernelNs = snapStart - kernelStart;
        r.stats = stack.snapshot();
        r.snapshotNs = nowNs() - snapStart;
        r.output = workload->output();
    }
    r.runNs = nowNs() - r.startNs;
    return r;
}

ReplayRun
recordAndReplay(const RunConfig &cfg)
{
    ReplayRun r;
    StatRegistry replayStats;
    MainMemory replayMemory;
    const ApproxRegistry noRegions;
    RunConfig baseline;
    baseline.llcName = "baseline";
    TracedLlc replayLlc(
        replayMemory,
        buildLlc("baseline", replayMemory, noRegions, baseline,
                 replayStats)
            .llc,
        r.llc);
    MemorySystem replay(HierarchyConfig{}, replayLlc, replayMemory,
                        &replayStats, "hierarchy");

    std::vector<AccessRecord> chunk;
    chunk.reserve(replayChunk);
    auto replayPending = [&] {
        const u64 start = nowNs();
        for (const AccessRecord &a : chunk) {
            u64 data = a.payload;
            replay.access(a.core, a.addr, a.isWrite, a.size, &data);
        }
        r.replayNs += nowNs() - start;
        r.accesses += chunk.size();
        chunk.clear();
    };

    Stack stack(cfg, nullptr);
    stack.lastLevel().setHotPathProfile(&r.phases);
    SimRuntime &rt = stack.runtime();
    rt.accessHook = [&](Addr addr, bool is_write, unsigned size,
                        u64 payload) {
        chunk.push_back(AccessRecord{addr, payload, rt.core(),
                                     static_cast<u8>(size), is_write});
        if (chunk.size() == replayChunk)
            replayPending();
    };
    auto workload = makeWorkload(cfg.workloadName, cfg.workload);
    workload->run(rt);
    replayPending();
    stack.lastLevel().setHotPathProfile(nullptr);
    r.stats = replayStats.snapshot();
    return r;
}

} // namespace perfbench
