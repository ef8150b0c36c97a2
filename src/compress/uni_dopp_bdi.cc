#include "uni_dopp_bdi.hh"

#include "compress/bdi.hh"
#include "util/logging.hh"

namespace dopp
{

UniDoppBdiLlc::UniDoppBdiLlc(MainMemory &memory,
                             const DoppConfig &config,
                             const ApproxRegistry *registry,
                             StatRegistry *stat_registry,
                             const std::string &stat_group,
                             DoppEngineMaker make_engine)
    : LastLevelCache(memory, stat_registry, stat_group)
{
    DOPP_ASSERT(config.unified);
    // Engine counters live under "<group>.dopp" like the plain
    // uniDoppelgänger builder arranges; the B∆I accounting gets its
    // own "<group>.bdi" subgroup so slice merges pick both up.
    engine = make_engine(memory, config, registry, stat_registry,
                         stat_group + ".dopp");

    StatGroup g = statGroup().group("bdi");
    const UniDoppBdiLlc *self = this;
    g.counterFn(
        "compressions", [self] { return self->nCompressions; },
        "data-array installs measured through the B∆I codec");
    g.counterFn(
        "compressedBytes", [self] { return self->nCompressedBytes; },
        "cumulative compressed size of those installs");
    fillSize = &g.distribution(
        "fillBytes", "compressed size per data-array install");
    g.formula(
        "compressionRatio",
        [self] { return self->compressionRatio(); },
        "uncompressed/compressed bytes over all installs (>= 1)");
}

void
UniDoppBdiLlc::account(const u8 *data)
{
    const unsigned size = bdiCompressedSize(data);
    ++nCompressions;
    nCompressedBytes += size;
    fillSize->sample(static_cast<double>(size));
}

double
UniDoppBdiLlc::compressionRatio() const
{
    if (nCompressedBytes == 0)
        return 1.0;
    return static_cast<double>(nCompressions * blockBytes) /
        static_cast<double>(nCompressedBytes);
}

void
UniDoppBdiLlc::setBackInvalidate(BackInvalidateFn fn)
{
    engine->setBackInvalidate(std::move(fn));
}

void
UniDoppBdiLlc::setFaultInjector(FaultInjector *fi)
{
    LastLevelCache::setFaultInjector(fi);
    engine->setFaultInjector(fi);
}

void
UniDoppBdiLlc::setGuardrail(QorGuardrail *g)
{
    LastLevelCache::setGuardrail(g);
    engine->setGuardrail(g);
}

LastLevelCache::FetchResult
UniDoppBdiLlc::fetch(Addr addr, u8 *data)
{
    const FetchResult r = engine->fetch(addr, data);
    // Every miss is accounted as one compressed install of the served
    // bytes. That is exact when the engine stores a fresh data entry,
    // but when a similar block already exists the engine only links
    // the tag to it and drops the fetched bytes: nothing is installed,
    // yet a compression is still counted, and the llc.bdi.* counters
    // are pinned that way. Hits already paid at install time.
    if (!r.hit)
        account(data);
    return r;
}

void
UniDoppBdiLlc::writeback(Addr addr, const u8 *data)
{
    engine->writeback(addr, data);
    // Writebacks rewrite (or re-map) the tag's data entry; account
    // the new contents like the snippet-3 design compresses every
    // data-array write.
    account(data);
}

bool
UniDoppBdiLlc::contains(Addr addr) const
{
    return engine->contains(addr);
}

void
UniDoppBdiLlc::forEachBlock(
    const std::function<void(const LlcBlockInfo &)> &visit) const
{
    engine->forEachBlock(visit);
}

void
UniDoppBdiLlc::flush()
{
    engine->flush();
}

} // namespace dopp
