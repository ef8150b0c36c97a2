/**
 * @file
 * Pins of the nine kernels' results: the FNV-1a digest of each run's
 * output bits and of its StatRegistry snapshot JSON, on the baseline
 * LLC and on split Doppelgänger, at scales 0.05 and 1. A second table
 * pins the tiered, faulted stack (4 Sandy Bridge slices, tiered
 * memory, LLC fault injection and the QoR guardrail) that exercises
 * the fault and guardrail hooks on every access.
 *
 * Kernel host loops may be restructured for speed only if every
 * floating-point sum keeps its addend order and every simulated access
 * keeps its place (DESIGN.md §19). A sum evaluated in a different order
 * changes an output bit or, through the approximate data the LLC
 * stores, a counter; either moves a digest here.
 *
 * If a change is meant to alter results, the failure message prints
 * the new row for the table below.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hh"
#include "sim/mem_tier.hh"
#include "util/hash.hh"
#include "workloads/workload.hh"

namespace dopp
{

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

// Recorded from the kernels as they were before their host loops were
// restructured for speed; a restructuring must reproduce every row.
constexpr Pin pins[] = {
    {0.05, "blackscholes", "baseline",
     0x1f51ba08708061dbULL, 0x7b4e9c0406b4cb19ULL},
    {0.05, "canneal", "baseline",
     0x4d88d2e750e61dcfULL, 0x66270d5f32456139ULL},
    {0.05, "ferret", "baseline",
     0x4511686710bc39d0ULL, 0x1b6e463cbecda288ULL},
    {0.05, "fluidanimate", "baseline",
     0x843c6480d0c3ddf4ULL, 0xece91b8091e0ab16ULL},
    {0.05, "inversek2j", "baseline",
     0xd5a295d7bb5f01d4ULL, 0x68c66a1e167bfe01ULL},
    {0.05, "jmeint", "baseline",
     0xc00a7a8e119ce085ULL, 0xaaee58c1157d0a14ULL},
    {0.05, "jpeg", "baseline",
     0xfa9de3d6f290c82dULL, 0x6243236c66108df2ULL},
    {0.05, "kmeans", "baseline",
     0x1a02f0bc8e694c9dULL, 0xd2461515ecda9e14ULL},
    {0.05, "swaptions", "baseline",
     0xa0377ea71f5bae6fULL, 0xd6cc6ec41a1a5b56ULL},
    {0.05, "blackscholes", "split-doppelganger",
     0x1f51ba08708061dbULL, 0xe10a3f40729869f5ULL},
    {0.05, "canneal", "split-doppelganger",
     0xbfbad58c5200a33dULL, 0xb3a77badbdd8daa2ULL},
    {0.05, "ferret", "split-doppelganger",
     0x637116d3fa653408ULL, 0x79df1f2ecf12dbd8ULL},
    {0.05, "fluidanimate", "split-doppelganger",
     0x843c6480d0c3ddf4ULL, 0x4c6831b070ed3bceULL},
    {0.05, "inversek2j", "split-doppelganger",
     0x4c71c4e6d321d665ULL, 0x06a26537e9d24964ULL},
    {0.05, "jmeint", "split-doppelganger",
     0x41f18bbe03f9f318ULL, 0xfa7d3d06d5d41521ULL},
    {0.05, "jpeg", "split-doppelganger",
     0xe53a8e78b698f816ULL, 0x09f9d94cf2c6ecf5ULL},
    {0.05, "kmeans", "split-doppelganger",
     0x1a02f0bc8e694c9dULL, 0x7e4b226b414db565ULL},
    {0.05, "swaptions", "split-doppelganger",
     0x33793ef6d668234dULL, 0x19147361f5a6b029ULL},
    {1, "blackscholes", "baseline",
     0x87b6a0607d0ac388ULL, 0x6927e7294e2d6413ULL},
    {1, "canneal", "baseline",
     0x012c915cbb6d3bedULL, 0x4ba7d2f2d28bc6f2ULL},
    {1, "ferret", "baseline",
     0xa15adf336aa170fbULL, 0x841081ef40b1c1f3ULL},
    {1, "fluidanimate", "baseline",
     0xd1ad699b6fdbdbb7ULL, 0x082ece0c4269f681ULL},
    {1, "inversek2j", "baseline",
     0x4b58d3067c854a3eULL, 0x7d4019813a397d81ULL},
    {1, "jmeint", "baseline",
     0x1c2515f6e6feb9a5ULL, 0x7a02b8ef9a359c98ULL},
    {1, "jpeg", "baseline",
     0xb50063101de2a38dULL, 0x8de134248e6f27b0ULL},
    {1, "kmeans", "baseline",
     0x018fe4e9e983336dULL, 0xc21b1040d8d1cd79ULL},
    {1, "swaptions", "baseline",
     0x4ff345a141a3f472ULL, 0xac4067407c82ea64ULL},
    {1, "blackscholes", "split-doppelganger",
     0xc04116a89ab3c153ULL, 0x74c5416c526c42d0ULL},
    {1, "canneal", "split-doppelganger",
     0xf393c2439662d951ULL, 0x8e819a4420a62a13ULL},
    {1, "ferret", "split-doppelganger",
     0x187373892b7652f0ULL, 0xfc5bd1d9821219a8ULL},
    {1, "fluidanimate", "split-doppelganger",
     0xc7f78456b244f276ULL, 0xa5398a599b1ce58fULL},
    {1, "inversek2j", "split-doppelganger",
     0xd17c7a3e55ce897aULL, 0xc54a047985f612abULL},
    {1, "jmeint", "split-doppelganger",
     0x3fb1d2efddc4b018ULL, 0x58aaa14b7359a25fULL},
    {1, "jpeg", "split-doppelganger",
     0x267df6c587fc9801ULL, 0x6d8e0d78c854a632ULL},
    {1, "kmeans", "split-doppelganger",
     0x8225c58aa836addbULL, 0x728af95e12f9109bULL},
    {1, "swaptions", "split-doppelganger",
     0x1fd51a5654b63291ULL, 0xbafcfc6c430cc511ULL},
};

/**
 * Scale 0.05 is quick; full scale (about 2 s for all 18 runs) is where
 * a reordered sum shows. A jpeg DCT sum added in another order moves a
 * rounded coefficient only somewhere among the full image's 262,144,
 * and reversing fluidanimate's particle order within a cell moves the
 * snapshot only from scale 0.25 up.
 */
constexpr double pinScales[] = {0.05, 1.0};

u64
outputDigest(const std::vector<double> &output)
{
    return fnv1a64(reinterpret_cast<const u8 *>(output.data()),
                   output.size() * sizeof(double));
}

/**
 * The tiered, faulted stack at scale 1: three kernels on split and
 * unified Doppelgänger over 4 `sandybridge` slices, with tiered memory
 * (`defaultMemTier(1e-5, 1e-4)`), LLC data/tag/MTag fault rates of
 * 1e-4 and a guardrail of budget 0.002 and migrateFactor 1.5.
 * Recorded before the fluidanimate neighbour kernel, the engine's
 * cached data slot and the typed substitution-error kernel landed.
 */
constexpr Pin tieredPins[] = {
    {1, "fluidanimate", "split-doppelganger",
     0xd04e8b799673c89bULL, 0xe2b50b87b149f3e5ULL},
    {1, "swaptions", "split-doppelganger",
     0xb23e61b3ad6a59d4ULL, 0x9920c7f8d42b877aULL},
    {1, "canneal", "split-doppelganger",
     0x7a3cfee9b6b20d0eULL, 0x84305cced29c4f64ULL},
    {1, "fluidanimate", "uniDoppelganger",
     0xd04e8b799673c89bULL, 0xc310bc6a23661479ULL},
    {1, "swaptions", "uniDoppelganger",
     0xb23e61b3ad6a59d4ULL, 0x2aace6921e2f620dULL},
    {1, "canneal", "uniDoppelganger",
     0x05ec3688f54de771ULL, 0x2e474de8c58538eaULL},
};

RunConfig
tieredRun(const char *org)
{
    RunConfig cfg;
    cfg.llcName = org;
    cfg.workload.scale = 1.0;
    cfg.sliceCount = 4;
    cfg.sliceHash = "sandybridge";
    cfg.memTier = defaultMemTier(1e-5, 1e-4);
    cfg.fault.seed = 1;
    cfg.fault.dataRate = 1e-4;
    cfg.fault.tagMetaRate = 1e-4;
    cfg.fault.mtagMetaRate = 1e-4;
    cfg.qor.budget = 0.002;
    cfg.qor.migrateFactor = 1.5;
    return cfg;
}

} // namespace

TEST(WorkloadPins, OutputAndStatsArePinned)
{
    unsetenv("DOPP_SLICES");
    unsetenv("DOPP_SLICE_HASH");

    size_t checked = 0;
    for (const double scale : pinScales) {
        for (const char *org : {"baseline", "split-doppelganger"}) {
            for (const std::string &wl : workloadNames()) {
                RunConfig cfg;
                cfg.llcName = org;
                cfg.workload.scale = scale;
                const RunResult r = runWorkload(wl, cfg);
                const u64 out = outputDigest(r.output);
                const u64 stats = fnv1a64(r.stats.json());

                const Pin *pin = nullptr;
                for (const Pin &p : pins) {
                    if (p.scale == scale && wl == p.workload &&
                        std::string(org) == p.organization)
                        pin = &p;
                }
                char row[192];
                std::snprintf(row, sizeof(row),
                              "{%g, \"%s\", \"%s\", 0x%016" PRIx64
                              "ULL, 0x%016" PRIx64 "ULL},",
                              scale, wl.c_str(), org, out, stats);
                if (!pin) {
                    ADD_FAILURE() << "no pin; new row: " << row;
                    continue;
                }
                EXPECT_EQ(out, pin->outputDigest)
                    << wl << " on " << org << " at scale " << scale
                    << ": output moved; new row: " << row;
                EXPECT_EQ(stats, pin->statsDigest)
                    << wl << " on " << org << " at scale " << scale
                    << ": snapshot moved; new row: " << row;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, std::size(pins));
}

TEST(WorkloadPins, TieredFaultedStackIsPinned)
{
    size_t checked = 0;
    u64 detected = 0;
    for (const char *org : {"split-doppelganger", "uniDoppelganger"}) {
        for (const char *wl : {"fluidanimate", "swaptions", "canneal"}) {
            const RunResult r = runWorkload(wl, tieredRun(org));
            const u64 out = outputDigest(r.output);
            const u64 stats = fnv1a64(r.stats.json());
            detected += r.stats.counter("fault.detected");

            const Pin *pin = nullptr;
            for (const Pin &p : tieredPins) {
                if (std::string(wl) == p.workload &&
                    std::string(org) == p.organization)
                    pin = &p;
            }
            char row[192];
            std::snprintf(row, sizeof(row),
                          "{1, \"%s\", \"%s\", 0x%016" PRIx64
                          "ULL, 0x%016" PRIx64 "ULL},",
                          wl, org, out, stats);
            if (!pin) {
                ADD_FAILURE() << "no pin; new row: " << row;
                continue;
            }
            EXPECT_EQ(out, pin->outputDigest)
                << wl << " on " << org << ": output moved; new row: "
                << row;
            EXPECT_EQ(stats, pin->statsDigest)
                << wl << " on " << org << ": snapshot moved; new row: "
                << row;
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(tieredPins));
    // Metadata faults must be caught and repaired somewhere in the
    // table, so the pins cover the self-check and repair paths too.
    EXPECT_GT(detected, 0u);
}

} // namespace dopp
