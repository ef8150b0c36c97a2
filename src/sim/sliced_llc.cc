#include "sliced_llc.hh"

#include "util/logging.hh"

namespace dopp
{

SlicedLlc::SlicedLlc(MainMemory &memory,
                     std::vector<std::unique_ptr<LastLevelCache>> slices,
                     SliceHashKind hash_kind,
                     StatRegistry *stat_registry,
                     const std::string &stat_group)
    : LastLevelCache(memory, stat_registry, stat_group),
      subs(std::move(slices)), hash(hash_kind)
{
    if (subs.empty())
        fatal("sliced llc: no slices");
    // Validate the (count, hash) pair once up front.
    (void)sliceOf(0, sliceCount(), hash);
    for (const auto &s : subs) {
        if (!s)
            fatal("sliced llc: null slice");
    }
}

LastLevelCache::FetchResult
SlicedLlc::fetch(Addr addr, u8 *data)
{
    return subs[sliceOfAddr(addr)]->fetch(addr, data);
}

void
SlicedLlc::writeback(Addr addr, const u8 *data)
{
    subs[sliceOfAddr(addr)]->writeback(addr, data);
}

bool
SlicedLlc::contains(Addr addr) const
{
    return subs[sliceOfAddr(addr)]->contains(addr);
}

void
SlicedLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    for (const auto &s : subs)
        s->forEachBlock(visit);
}

void
SlicedLlc::flush()
{
    for (const auto &s : subs)
        s->flush();
}

void
SlicedLlc::setBackInvalidate(BackInvalidateFn fn)
{
    for (const auto &s : subs)
        s->setBackInvalidate(fn);
}

void
SlicedLlc::setFaultInjector(FaultInjector *fi)
{
    for (const auto &s : subs)
        s->setFaultInjector(fi);
}

void
SlicedLlc::setGuardrail(QorGuardrail *g)
{
    for (const auto &s : subs)
        s->setGuardrail(g);
}

void
SlicedLlc::setHotPathProfile(HotPathProfile *p)
{
    for (const auto &s : subs)
        s->setHotPathProfile(p);
}

const LlcStats &
SlicedLlc::stats() const
{
    LlcStats sum;
    for (const auto &s : subs) {
        const LlcStats &x = s->stats();
        for (const LlcStatField &f : llcStatFields())
            f.ref(sum) += f.get(x);
    }
    statsView = sum;
    return statsView;
}

void
SlicedLlc::resetStats()
{
    for (const auto &s : subs)
        s->resetStats();
}

} // namespace dopp
