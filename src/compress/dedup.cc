#include "dedup.hh"

namespace dopp
{

DedupLlc::DedupLlc(MainMemory &memory, const DedupConfig &config,
                   StatRegistry *stat_registry,
                   const std::string &stat_group,
                   DoppEngineMaker make_engine)
    : LastLevelCache(memory, stat_registry, stat_group)
{
    DoppConfig dc;
    dc.tagEntries = config.tagEntries;
    dc.tagWays = config.tagWays;
    dc.dataEntries = config.dataEntries;
    dc.dataWays = config.dataWays;
    dc.hitLatency = config.hitLatency;
    dc.unified = false;
    dc.mapOverride = [](const u8 *block, const MapParams &) {
        return fnv1a64(block, blockBytes);
    };
    // The engine owns every counter; register it under the dedup
    // cache's own group so "llc.*" names resolve to engine activity.
    engine = make_engine(memory, dc, nullptr, stat_registry, stat_group);
}

void
DedupLlc::setBackInvalidate(BackInvalidateFn fn)
{
    engine->setBackInvalidate(std::move(fn));
}

void
DedupLlc::setFaultInjector(FaultInjector *fi)
{
    LastLevelCache::setFaultInjector(fi);
    engine->setFaultInjector(fi);
}

void
DedupLlc::setGuardrail(QorGuardrail *g)
{
    LastLevelCache::setGuardrail(g);
    engine->setGuardrail(g);
}

bool
DedupLlc::checkInvariants(std::string *why, bool check_hashes) const
{
    if (!engine->checkInvariants(why))
        return false;
    if (!check_hashes)
        return true;
    // Hash-table consistency: a resident block whose stored map is
    // not the hash of its served bytes would dedup against the wrong
    // pool (and a later writeback would unlink the wrong entry).
    bool ok = true;
    engine->forEachBlock([&](const LlcBlockInfo &info) {
        if (!ok)
            return;
        const auto map = engine->mapOf(info.addr);
        if (!map)
            return; // precise tags (unified mode) carry no map
        if (*map != fnv1a64(info.data, blockBytes)) {
            ok = false;
            if (why) {
                *why = "dedup: stored map of a resident block is not "
                       "the content hash of its served bytes";
            }
        }
    });
    return ok;
}

LastLevelCache::FetchResult
DedupLlc::fetch(Addr addr, u8 *data)
{
    return engine->fetch(addr, data);
}

void
DedupLlc::writeback(Addr addr, const u8 *data)
{
    engine->writeback(addr, data);
}

bool
DedupLlc::contains(Addr addr) const
{
    return engine->contains(addr);
}

void
DedupLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    engine->forEachBlock(visit);
}

void
DedupLlc::flush()
{
    engine->flush();
}

} // namespace dopp
