/**
 * @file
 * Self-registering LLC factory: maps organization names to builder
 * functions. The name is the only way to name an organization:
 * RunConfig::llcName, reports, journal records and fingerprints all
 * carry it. The built-in organizations register themselves
 * (llc_builders.cc) as "baseline", "split-doppelganger",
 * "uniDoppelganger", "dedup", "bdi", "uniDoppBdi", "gdish" and
 * "approxDedup"; experiments and tests may add their own with
 * registerLlc() before calling runWorkload().
 */

#ifndef DOPP_HARNESS_LLC_FACTORY_HH
#define DOPP_HARNESS_LLC_FACTORY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dopp_engine.hh"
#include "core/split_llc.hh"
#include "sim/llc.hh"
#include "sim/memory.hh"
#include "util/stats.hh"

namespace dopp
{

struct RunConfig;

/** What a builder hands back to the harness. */
struct LlcBuilt
{
    std::unique_ptr<LastLevelCache> llc;

    /** Set when the organization is the split one (per-half stats).
     * Sliced runs: the first slice's (see @ref splits). */
    const SplitLlc *split = nullptr;

    /** Set when a Doppelgänger engine is reachable (occupancy).
     * Sliced runs: the first slice's (see @ref dopps). */
    const DoppEngine *dopp = nullptr;

    /** Every split container in the build: empty for non-split
     * organizations, one entry unsliced, one per slice sliced. */
    std::vector<const SplitLlc *> splits;

    /** Every reachable Doppelgänger engine, likewise. */
    std::vector<const DoppEngine *> dopps;

    /** Geometry actually used, for the energy model; defaulted for
     * organizations without a Doppelgänger engine. Sliced runs carry
     * the per-slice geometry (capacity / N). */
    DoppConfig doppConfig;
};

/**
 * Builds one LLC organization for a run. The builder registers the
 * organization's counters into @p stats under @p stat_group ("llc"
 * for a direct build; "llc.sliceN" when the sliced front end builds
 * one organization per slice) and may consult any RunConfig knob.
 * Builders must honor @p stat_group rather than hard-coding "llc" —
 * that is what lets any registered organization be sliced without
 * per-organization edits.
 */
using LlcBuilder = std::function<LlcBuilt(
    MainMemory &memory, const ApproxRegistry &registry,
    const RunConfig &cfg, StatRegistry &stats,
    const std::string &stat_group)>;

/**
 * Register @p builder under @p name. Registering a name twice is
 * fatal (catches accidental shadowing of a built-in organization).
 */
void registerLlc(const std::string &name, LlcBuilder builder);

/** Whether @p name has a registered builder. */
bool llcRegistered(const std::string &name);

/** Registered organization names, in registration order. */
std::vector<std::string> registeredLlcNames();

/**
 * Build the organization registered under @p name; fatal if @p name
 * is unknown (the message lists what is registered).
 *
 * Slice composition happens here (DESIGN.md §15): when the resolved
 * slice count (resolvedSliceConfig — explicit RunConfig fields, else
 * DOPP_SLICES / DOPP_SLICE_HASH) is non-zero,
 * the builder runs once per slice with scaled capacity under
 * "llc.sliceN" groups and the result is a SlicedLlc front end whose
 * merged aggregate reappears under "llc" with exactly the unsliced
 * stat names. Count 1 keeps the single slice registered directly
 * under "llc", so a slices=1 run is bit-identical to an unsliced one.
 */
LlcBuilt buildLlc(const std::string &name, MainMemory &memory,
                  const ApproxRegistry &registry, const RunConfig &cfg,
                  StatRegistry &stats);

/** Force registration of the built-in organizations. Called by
 * the factory itself; callable from tests that enumerate names. */
void registerBuiltinLlcs();

} // namespace dopp

#endif // DOPP_HARNESS_LLC_FACTORY_HH
