/**
 * @file
 * Pins of the compressed and deduplicating LLC baselines (B∆I, G-DISH,
 * unified Doppelgänger over B∆I, exact dedup and approximate dedup):
 * the GdishDict open-addressing table against a std::unordered_map
 * model under seeded churn, and FNV-1a digests of every kernel's
 * output bits and snapshot JSON on the five organizations (DESIGN.md
 * §17.5).
 *
 * The compressed-set store must reproduce the array-of-structs
 * organizations it replaced bit for bit: the same victim (first LRU
 * minimum) and free slot (first invalid) in slot order, the same
 * dictionary counters and the same served bytes. Any drift moves a
 * digest here; the failure message prints the new table row.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "compress/gdish.hh"
#include "harness/experiment.hh"
#include "util/hash.hh"
#include "util/random.hh"
#include "workloads/workload.hh"

namespace dopp
{

// ---------------------------------------------------------------------
// GdishDict against the std::unordered_map dictionary it replaced.
// ---------------------------------------------------------------------

namespace
{

/** The word → refcount dictionary as a node-based hash map: the
 * original implementation, kept as the model. */
class MapDictModel
{
  public:
    explicit MapDictModel(u32 capacity) : cap(capacity) {}

    bool
    compressible(const u8 *block) const
    {
        u32 missing = 0;
        std::unordered_set<u32> seen;
        for (unsigned i = 0; i < gdishWordsPerBlock; ++i) {
            const u32 w = wordAt(block, i);
            if (words.count(w) || !seen.insert(w).second)
                continue;
            ++missing;
        }
        return words.size() + missing <= cap;
    }

    bool
    acquire(const u8 *block)
    {
        if (!compressible(block))
            return false;
        for (unsigned i = 0; i < gdishWordsPerBlock; ++i) {
            auto [it, inserted] =
                words.try_emplace(wordAt(block, i), 0u);
            if (inserted)
                ++insertCount;
            ++it->second;
        }
        return true;
    }

    void
    release(const u8 *block)
    {
        for (unsigned i = 0; i < gdishWordsPerBlock; ++i) {
            auto it = words.find(wordAt(block, i));
            ASSERT_TRUE(it != words.end() && it->second > 0);
            if (--it->second == 0) {
                words.erase(it);
                ++eraseCount;
            }
        }
    }

    u32 size() const { return static_cast<u32>(words.size()); }
    u64 inserts() const { return insertCount; }
    u64 erases() const { return eraseCount; }

    u64
    totalRefs() const
    {
        u64 n = 0;
        for (const auto &[w, refs] : words)
            n += refs;
        return n;
    }

  private:
    static u32
    wordAt(const u8 *block, unsigned i)
    {
        u32 w;
        std::memcpy(&w, block + i * gdishWordBytes, gdishWordBytes);
        return w;
    }

    u32 cap;
    std::unordered_map<u32, u32> words;
    u64 insertCount = 0;
    u64 eraseCount = 0;
};

BlockData
blockOfWords(const u32 (&w)[gdishWordsPerBlock])
{
    BlockData b;
    std::memcpy(b.data(), w, blockBytes);
    return b;
}

/**
 * Words whose home slot is one of the last two slots of @p dict's
 * table, so their probe runs wrap around the end. Found by search
 * from a seeded start; the pool is small so blocks drawn from it
 * collide with each other too.
 */
std::vector<u32>
wrapAroundWords(const GdishDict &dict, Rng &rng, size_t n)
{
    const u32 last = dict.slotCount() - 1;
    std::vector<u32> out;
    for (u32 w = static_cast<u32>(rng.next()); out.size() < n; ++w) {
        const u32 h = dict.homeSlot(w);
        if (h == last || h + 1 == last)
            out.push_back(w);
    }
    return out;
}

enum class BlockKind
{
    AllEqual,
    AllDistinct,
    WrapColliding,
    SmallPool,
};

BlockData
makeBlock(BlockKind kind, Rng &rng, const std::vector<u32> &wrap)
{
    u32 w[gdishWordsPerBlock];
    switch (kind) {
      case BlockKind::AllEqual: {
        const u32 v = static_cast<u32>(rng.below(64));
        for (u32 &x : w)
            x = v;
        break;
      }
      case BlockKind::AllDistinct: {
        const u32 base = static_cast<u32>(rng.next());
        for (unsigned i = 0; i < gdishWordsPerBlock; ++i)
            w[i] = base + i * 0x01000193u;
        break;
      }
      case BlockKind::WrapColliding:
        for (u32 &x : w)
            x = wrap[rng.below(wrap.size())];
        break;
      case BlockKind::SmallPool:
        for (u32 &x : w)
            x = static_cast<u32>(rng.below(48)) * 0x9E3779B1u;
        break;
    }
    return blockOfWords(w);
}

} // namespace

TEST(GdishDictModel, MatchesMapModelUnderChurn)
{
    for (const u32 cap : {1u, 8u, 64u, 4096u}) {
        GdishDict dict(cap);
        MapDictModel model(cap);
        Rng rng(0x6D15C + cap);
        const std::vector<u32> wrap = wrapAroundWords(dict, rng, 12);
        std::vector<BlockData> live;

        auto check = [&](const char *what, size_t step) {
            SCOPED_TRACE(testing::Message()
                         << "cap " << cap << " step " << step << " after "
                         << what);
            ASSERT_EQ(dict.size(), model.size());
            ASSERT_EQ(dict.inserts(), model.inserts());
            ASSERT_EQ(dict.erases(), model.erases());
            ASSERT_EQ(dict.totalRefs(), model.totalRefs());
            std::string why;
            ASSERT_TRUE(dict.checkInvariants(&why)) << why;
        };

        // Alternate fill-heavy and erase-heavy phases; the last phase
        // drains everything.
        const size_t stepsPerPhase = cap >= 4096 ? 3000 : 600;
        size_t step = 0;
        for (unsigned phase = 0; phase < 6; ++phase) {
            const bool eraseHeavy = phase % 2 == 1;
            for (size_t i = 0; i < stepsPerPhase; ++i, ++step) {
                const bool release = !live.empty() &&
                    rng.below(10) < (eraseHeavy ? 8u : 3u);
                if (release) {
                    const size_t at = rng.below(live.size());
                    dict.release(live[at].data());
                    model.release(live[at].data());
                    live[at] = live.back();
                    live.pop_back();
                    ASSERT_NO_FATAL_FAILURE(check("release", step));
                    continue;
                }
                const auto kind =
                    static_cast<BlockKind>(rng.below(4));
                const BlockData b = makeBlock(kind, rng, wrap);
                ASSERT_EQ(dict.compressible(b.data()),
                          model.compressible(b.data()))
                    << "cap " << cap << " step " << step;
                const bool got = dict.acquire(b.data());
                ASSERT_EQ(got, model.acquire(b.data()))
                    << "cap " << cap << " step " << step;
                if (got)
                    live.push_back(b);
                ASSERT_NO_FATAL_FAILURE(check("acquire", step));
            }
        }
        while (!live.empty()) {
            dict.release(live.back().data());
            model.release(live.back().data());
            live.pop_back();
            ASSERT_NO_FATAL_FAILURE(check("drain", step++));
        }
        EXPECT_EQ(dict.size(), 0u);
        EXPECT_GT(dict.inserts(), 0u) << "cap " << cap;
    }
}

// ---------------------------------------------------------------------
// Organization-level pins.
// ---------------------------------------------------------------------

namespace
{

struct Pin
{
    double scale;
    const char *workload;
    const char *organization;
    u64 outputDigest;
    u64 statsDigest;
};

// The bdi, gdish and uniDoppBdi rows were recorded from the
// array-of-structs BdiLlc/GdishLlc and the unordered_map dictionary,
// before the compressed-set store replaced them; the store must
// reproduce every row. The dedup and approxDedup rows were recorded
// from the LastLevelCache wrappers those organizations had before the
// factory built their engines directly.
constexpr Pin pins[] = {
    {0.05, "blackscholes", "bdi",
     0x1f51ba08708061dbULL, 0x7b4e9c0406b4cb19ULL},
    {0.05, "blackscholes", "gdish",
     0x1f51ba08708061dbULL, 0x09772e394463263dULL},
    {0.05, "blackscholes", "uniDoppBdi",
     0x1f51ba08708061dbULL, 0xe3a58abc0769e776ULL},
    {0.05, "blackscholes", "dedup",
     0x1f51ba08708061dbULL, 0x98c217895fabcdfbULL},
    {0.05, "blackscholes", "approxDedup",
     0x1f51ba08708061dbULL, 0xf4e364c9cd5a9bb5ULL},
    {0.05, "canneal", "bdi",
     0x4d88d2e750e61dcfULL, 0x66270d5f32456139ULL},
    {0.05, "canneal", "gdish",
     0x4d88d2e750e61dcfULL, 0xebe349c067acdff5ULL},
    {0.05, "canneal", "uniDoppBdi",
     0xbfbad58c5200a33dULL, 0x3828a6d31effe6e3ULL},
    {0.05, "canneal", "dedup",
     0x4d88d2e750e61dcfULL, 0x1e1ddfdb6bdbe9f4ULL},
    {0.05, "canneal", "approxDedup",
     0xbf9d95114e632660ULL, 0xed955fb2b44d8fdeULL},
    {0.05, "ferret", "bdi",
     0x4511686710bc39d0ULL, 0x1b6e463cbecda288ULL},
    {0.05, "ferret", "gdish",
     0x4511686710bc39d0ULL, 0xa743e8214e7f8b6eULL},
    {0.05, "ferret", "uniDoppBdi",
     0x637116d3fa653408ULL, 0x7f07e663ffb7bc04ULL},
    {0.05, "ferret", "dedup",
     0x4511686710bc39d0ULL, 0x1d35fc95b908deacULL},
    {0.05, "ferret", "approxDedup",
     0x4511686710bc39d0ULL, 0x5a9cf65f552e2566ULL},
    {0.05, "fluidanimate", "bdi",
     0x843c6480d0c3ddf4ULL, 0xece91b8091e0ab16ULL},
    {0.05, "fluidanimate", "gdish",
     0x843c6480d0c3ddf4ULL, 0x0832017b5d4c4412ULL},
    {0.05, "fluidanimate", "uniDoppBdi",
     0x843c6480d0c3ddf4ULL, 0x5a34869ca919911fULL},
    {0.05, "fluidanimate", "dedup",
     0x843c6480d0c3ddf4ULL, 0x2ca6c00943d306b9ULL},
    {0.05, "fluidanimate", "approxDedup",
     0x72ecd5d18b240302ULL, 0x5eda50ef9d5eaf2cULL},
    {0.05, "inversek2j", "bdi",
     0xd5a295d7bb5f01d4ULL, 0x68c66a1e167bfe01ULL},
    {0.05, "inversek2j", "gdish",
     0xd5a295d7bb5f01d4ULL, 0x5aab956242665c96ULL},
    {0.05, "inversek2j", "uniDoppBdi",
     0x4c71c4e6d321d665ULL, 0x8ad23224a605c8c7ULL},
    {0.05, "inversek2j", "dedup",
     0xd5a295d7bb5f01d4ULL, 0xf8d820b6b43096ccULL},
    {0.05, "inversek2j", "approxDedup",
     0x75c6b9a3aef40887ULL, 0xae8451e0f4c70a6cULL},
    {0.05, "jmeint", "bdi",
     0xc00a7a8e119ce085ULL, 0xaaee58c1157d0a14ULL},
    {0.05, "jmeint", "gdish",
     0xc00a7a8e119ce085ULL, 0x6f2ccfb38b5a6a8aULL},
    {0.05, "jmeint", "uniDoppBdi",
     0x41f18bbe03f9f318ULL, 0x88bcd2fc5681f60dULL},
    {0.05, "jmeint", "dedup",
     0xc00a7a8e119ce085ULL, 0x0c8a09a6ffae184aULL},
    {0.05, "jmeint", "approxDedup",
     0xc00a7a8e119ce085ULL, 0x9f3fb0949e1a799aULL},
    {0.05, "jpeg", "bdi",
     0xfa9de3d6f290c82dULL, 0x6243236c66108df2ULL},
    {0.05, "jpeg", "gdish",
     0xfa9de3d6f290c82dULL, 0x3659173e3c057de1ULL},
    {0.05, "jpeg", "uniDoppBdi",
     0xe53a8e78b698f816ULL, 0x317c3e8fd00fc20cULL},
    {0.05, "jpeg", "dedup",
     0xfa9de3d6f290c82dULL, 0x548be65e83f0f632ULL},
    {0.05, "jpeg", "approxDedup",
     0xfa9de3d6f290c82dULL, 0x305b1712a6ff39eeULL},
    {0.05, "kmeans", "bdi",
     0x1a02f0bc8e694c9dULL, 0xd2461515ecda9e14ULL},
    {0.05, "kmeans", "gdish",
     0x1a02f0bc8e694c9dULL, 0x0e1c7ed56851821cULL},
    {0.05, "kmeans", "uniDoppBdi",
     0x1a02f0bc8e694c9dULL, 0x5007e92da74e7608ULL},
    {0.05, "kmeans", "dedup",
     0x1a02f0bc8e694c9dULL, 0x2f001ea5413c65c6ULL},
    {0.05, "kmeans", "approxDedup",
     0x1a02f0bc8e694c9dULL, 0x2f001ea5413c65c6ULL},
    {0.05, "swaptions", "bdi",
     0xa0377ea71f5bae6fULL, 0xd6cc6ec41a1a5b56ULL},
    {0.05, "swaptions", "gdish",
     0xa0377ea71f5bae6fULL, 0x3e6b4113058cc179ULL},
    {0.05, "swaptions", "uniDoppBdi",
     0x33793ef6d668234dULL, 0x6ad60055bc213270ULL},
    {0.05, "swaptions", "dedup",
     0xa0377ea71f5bae6fULL, 0xbd8c84aee5dc82d0ULL},
    {0.05, "swaptions", "approxDedup",
     0xb08e8483579e1e53ULL, 0xbb8f3f8a14089cfcULL},
    {1, "ferret", "bdi",
     0xa15adf336aa170fbULL, 0xf2011b46c41291d6ULL},
    {1, "ferret", "gdish",
     0xa15adf336aa170fbULL, 0x5fa1445f165187eeULL},
    {1, "ferret", "uniDoppBdi",
     0x9e564511daf4e733ULL, 0x5e717826125b51e5ULL},
    {1, "ferret", "dedup",
     0xa15adf336aa170fbULL, 0x45caf513adc6de03ULL},
    {1, "ferret", "approxDedup",
     0xa15adf336aa170fbULL, 0x9e512952c5e0de58ULL},
    {1, "inversek2j", "bdi",
     0x4b58d3067c854a3eULL, 0x7d4019813a397d81ULL},
    {1, "inversek2j", "gdish",
     0x4b58d3067c854a3eULL, 0xb7c2a143da795412ULL},
    {1, "inversek2j", "uniDoppBdi",
     0x21cd290d58eb07d5ULL, 0x91eb2b77e679e767ULL},
    {1, "inversek2j", "dedup",
     0x4b58d3067c854a3eULL, 0x986ea361a265d388ULL},
    {1, "inversek2j", "approxDedup",
     0x0f42645b238e7ec6ULL, 0x34cb6d5f62198ebcULL},
};

/** Ablated runs at scale 0.05, with every Doppelgänger knob of the
 * RunConfig off its default (ablatedConfig). dedup reads none of them
 * and approxDedup only mapBits, so a builder that copies the others
 * into its engine (doppConfigFor does) moves both canneal rows.
 * kmeans fits the LLC: its rows move for neither. */
constexpr Pin ablatedPins[] = {
    {0.05, "kmeans", "bdi",
     0x1a02f0bc8e694c9dULL, 0xd2461515ecda9e14ULL},
    {0.05, "kmeans", "gdish",
     0x1a02f0bc8e694c9dULL, 0x0e1c7ed56851821cULL},
    {0.05, "kmeans", "uniDoppBdi",
     0x1a02f0bc8e694c9dULL, 0x654525f3ba515782ULL},
    {0.05, "kmeans", "dedup",
     0x1a02f0bc8e694c9dULL, 0x2f001ea5413c65c6ULL},
    {0.05, "kmeans", "approxDedup",
     0x1a02f0bc8e694c9dULL, 0x2f001ea5413c65c6ULL},
    {0.05, "canneal", "bdi",
     0x4d88d2e750e61dcfULL, 0x66270d5f32456139ULL},
    {0.05, "canneal", "gdish",
     0x4d88d2e750e61dcfULL, 0xebe349c067acdff5ULL},
    {0.05, "canneal", "uniDoppBdi",
     0x826b67fa51fc577bULL, 0x9d4a8d4ce050f888ULL},
    {0.05, "canneal", "dedup",
     0x4d88d2e750e61dcfULL, 0x1e1ddfdb6bdbe9f4ULL},
    {0.05, "canneal", "approxDedup",
     0x93ee39ad4a02deaaULL, 0xedc7ef422bfe6168ULL},
};

constexpr const char *ablatedWorkloads[] = {"kmeans", "canneal"};

constexpr const char *organizations[] = {"bdi", "gdish", "uniDoppBdi",
                                         "dedup", "approxDedup"};

/** Full-scale rows: the two kernels whose footprints overflow the LLC,
 * so the eviction, writeback and dictionary-churn paths run hot. */
constexpr const char *fullScaleWorkloads[] = {"ferret", "inversek2j"};

u64
outputDigest(const std::vector<double> &output)
{
    return fnv1a64(reinterpret_cast<const u8 *>(output.data()),
                   output.size() * sizeof(double));
}

RunConfig
ablatedConfig(const char *org)
{
    RunConfig cfg;
    cfg.llcName = org;
    cfg.workload.scale = 0.05;
    cfg.mapBits = 10;
    cfg.hashDataSetIndex = false;
    cfg.dataPolicy = ReplPolicy::RANDOM;
    cfg.tagCountAwareData = true;
    return cfg;
}

/** Runs @p cfg and compares it with the row of @p table keyed by
 * (scale, workload, organization); returns whether a row was found. */
template <size_t N>
bool
checkPin(const Pin (&table)[N], const std::string &wl,
         const RunConfig &cfg, const char *what)
{
    const RunResult r = runWorkload(wl, cfg);
    const u64 out = outputDigest(r.output);
    const u64 stats = fnv1a64(r.stats.json());
    const double scale = cfg.workload.scale;
    const char *org = cfg.llcName.c_str();

    const Pin *pin = nullptr;
    for (const Pin &p : table) {
        if (p.scale == scale && wl == p.workload &&
            cfg.llcName == p.organization)
            pin = &p;
    }
    char row[192];
    std::snprintf(row, sizeof(row),
                  "{%g, \"%s\", \"%s\", 0x%016" PRIx64
                  "ULL, 0x%016" PRIx64 "ULL},",
                  scale, wl.c_str(), org, out, stats);
    if (!pin) {
        ADD_FAILURE() << what << ": no pin; new row: " << row;
        return false;
    }
    EXPECT_EQ(out, pin->outputDigest)
        << what << " " << wl << " on " << org << " at scale " << scale
        << ": output moved; new row: " << row;
    EXPECT_EQ(stats, pin->statsDigest)
        << what << " " << wl << " on " << org << " at scale " << scale
        << ": snapshot moved; new row: " << row;
    return true;
}

} // namespace

TEST(CompressedOrgPins, OutputAndStatsArePinned)
{
    unsetenv("DOPP_SLICES");
    unsetenv("DOPP_SLICE_HASH");

    std::vector<std::pair<double, std::string>> runs;
    for (const std::string &wl : workloadNames())
        runs.emplace_back(0.05, wl);
    for (const char *wl : fullScaleWorkloads)
        runs.emplace_back(1.0, wl);

    size_t checked = 0;
    for (const auto &[scale, wl] : runs) {
        for (const char *org : organizations) {
            RunConfig cfg;
            cfg.llcName = org;
            cfg.workload.scale = scale;
            checked += checkPin(pins, wl, cfg, "default");
        }
    }
    EXPECT_EQ(checked, std::size(pins));

    size_t ablated = 0;
    for (const char *wl : ablatedWorkloads) {
        for (const char *org : organizations)
            ablated += checkPin(ablatedPins, wl, ablatedConfig(org),
                                "ablated");
    }
    EXPECT_EQ(ablated, std::size(ablatedPins));
}

} // namespace dopp
