/**
 * @file
 * The benchmark's three workloads, each a fixed list of runWorkload
 * configurations (README.md says why each was chosen), plus the
 * per-run result digest the oracle stores.
 */

#ifndef DOPP_PERFBENCH_SWEEPS_HH
#define DOPP_PERFBENCH_SWEEPS_HH

#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace perfbench
{

/** One benchmark workload: a named run list at a fixed scale. */
struct Sweep
{
    std::string name;
    double scale = 1.0;
    std::vector<dopp::RunConfig> runs;
};

/** Names of the benchmark workloads, in BENCHMARK.json order. */
const std::vector<std::string> &sweepNames();

/** Build workload @p name with inputs from @p seed; fatal on an
 * unknown name. */
Sweep makeSweep(const std::string &name, dopp::u64 seed);

/** "<kernel>/<organization>": the key a run has in the oracle. */
std::string runLabel(const dopp::RunConfig &cfg);

/** FNV-1a digest of a run's end-of-run snapshot and output vector. */
dopp::u64 resultDigest(const dopp::StatSnapshot &stats,
                       const std::vector<double> &output);

} // namespace perfbench

#endif // DOPP_PERFBENCH_SWEEPS_HH
