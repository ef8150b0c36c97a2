/**
 * @file
 * Host-speed probe. The benchmark shares its host, and neighbours slow
 * the simulator by up to 1.7x in spells that last minutes, longer than
 * a run. Timing a fixed reference kernel next to every simulated run
 * measures how fast the host is at that moment, so the run's time can
 * be stated at a fixed reference speed (run.py does that).
 *
 * The kernel is a small cache-hierarchy model of its own: four private
 * L1/L2 pairs and a shared set-associative LLC that stores 64-byte
 * blocks filled from a 32 MB backing array, driven by a mix of
 * sequential and random block addresses. It touches the host's caches
 * and memory the way the simulator does, so the two slow down
 * together. It uses no simulator code: a change under src/ never
 * changes the probe.
 */

#ifndef DOPP_PERFBENCH_CALIBRATE_HH
#define DOPP_PERFBENCH_CALIBRATE_HH

#include <cstdint>

namespace perfbench
{

/** One probe: host nanoseconds taken and a checksum of the work. */
struct ProbeResult
{
    std::uint64_t ns = 0;
    std::uint64_t checksum = 0;
};

/**
 * Run the reference kernel once. The first call allocates and fills
 * the model (about 40 MB); every call does the same work and returns
 * the same checksum.
 */
ProbeResult hostProbe();

} // namespace perfbench

#endif // DOPP_PERFBENCH_CALIBRATE_HH
