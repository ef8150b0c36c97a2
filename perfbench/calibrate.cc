#include "calibrate.hh"

#include <chrono>
#include <cstring>
#include <vector>

namespace perfbench
{

namespace
{

using u64 = std::uint64_t;
using u32 = std::uint32_t;

constexpr u64 kBlock = 64;
constexpr u64 kSpanBlocks = u64{1} << 19; ///< 32 MB backing array
constexpr int kAccesses = 100000;         ///< per probe

/** Set-associative LRU cache holding 64-byte blocks. */
class BlockCache
{
  public:
    BlockCache(u32 sets, u32 ways)
        : sets_(sets), ways_(ways), tag_(sets * ways, ~u64{0}),
          lru_(sets * ways, 0), data_(u64{sets} * ways * kBlock, 0)
    {
    }

    /** The block's bytes; on a miss, filled from @p backing. */
    const unsigned char *
    access(u64 blk, const unsigned char *backing, bool &hit)
    {
        const u32 set = static_cast<u32>((blk ^ (blk >> 11)) % sets_);
        u64 *tag = &tag_[set * ways_];
        u64 *lru = &lru_[set * ways_];
        ++clock_;
        u32 victim = 0;
        for (u32 w = 0; w < ways_; ++w) {
            if (tag[w] == blk) {
                lru[w] = clock_;
                hit = true;
                return &data_[(u64{set} * ways_ + w) * kBlock];
            }
            if (lru[w] < lru[victim])
                victim = w;
        }
        tag[victim] = blk;
        lru[victim] = clock_;
        unsigned char *d = &data_[(u64{set} * ways_ + victim) * kBlock];
        std::memcpy(d, backing + blk * kBlock, kBlock);
        hit = false;
        return d;
    }

  private:
    u32 sets_, ways_;
    std::vector<u64> tag_, lru_;
    std::vector<unsigned char> data_;
    u64 clock_ = 0;
};

/** The model: 4 x (32 KB L1, 256 KB L2), an 8 MB LLC, the backing. */
struct Model
{
    std::vector<unsigned char> backing;
    std::vector<BlockCache> l1, l2;
    BlockCache llc{8192, 16};

    Model()
        : backing(kSpanBlocks * kBlock), l1(4, BlockCache(64, 8)),
          l2(4, BlockCache(512, 8))
    {
        for (u64 i = 0; i < backing.size(); ++i)
            backing[i] = static_cast<unsigned char>(i * 131 + (i >> 12));
    }
};

} // namespace

ProbeResult
hostProbe()
{
    static Model m;
    const auto start = std::chrono::steady_clock::now();
    // The same address stream every call: an eighth sequential per
    // core, the rest random, half of those in a 256 KB hot region.
    // Mostly random addresses track the simulator's slowdown more
    // closely than mostly sequential ones.
    u64 x = 0x2545F4914F6CDD1DULL;
    u64 seq[4] = {0, u64{1} << 15, u64{1} << 16, u64{3} << 15};
    u64 sum = 0;
    for (int i = 0; i < kAccesses; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const unsigned core = i & 3;
        const u64 blk = (x & 7) == 0
            ? (seq[core]++ >> 3) % kSpanBlocks
            : (x >> 20) % ((x & 16) ? 4096 : kSpanBlocks);
        bool hit = false;
        const unsigned char *d = m.l1[core].access(blk, m.backing.data(), hit);
        if (!hit) {
            d = m.l2[core].access(blk, m.backing.data(), hit);
            if (!hit)
                d = m.llc.access(blk, m.backing.data(), hit);
        }
        sum += d[x & (kBlock - 1)];
    }
    const auto took = std::chrono::steady_clock::now() - start;
    return {static_cast<u64>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(took)
                    .count()),
            sum};
}

} // namespace perfbench
