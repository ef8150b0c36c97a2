/**
 * @file
 * Helpers the harness suites share: a small run config, and test
 * organizations whose builder misbehaves inside the run (throws,
 * sleeps, or raises a cancel flag) so the batch runner, resilience
 * and campaign service tests can exercise failure paths with
 * ordinary, spoolable configs.
 */

#ifndef DOPP_TESTS_TEST_SUPPORT_HH
#define DOPP_TESTS_TEST_SUPPORT_HH

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness/experiment.hh"
#include "harness/llc_factory.hh"

namespace dopp
{

/** @p workload on organization @p org at a test-sized @p scale. */
inline RunConfig
tinyConfig(const std::string &workload, const std::string &org,
           double scale = 0.03)
{
    RunConfig cfg;
    cfg.workloadName = workload;
    cfg.llcName = org;
    cfg.workload.scale = scale;
    return cfg;
}

/** Set by the first "test-throws-once" build; clear it to re-arm. */
inline std::atomic<bool> throwsOnceFired{false};

/** Raised by every "test-cancels" build; pass it as a batch's
 * cancel flag and clear it first. */
inline std::atomic<bool> testCancelFlag{false};

/**
 * Register the test organizations, each wrapping "baseline" and
 * misbehaving in its builder:
 *  - "test-throws-always" throws "builder always throws";
 *  - "test-throws-once" throws "builder threw once" on its first
 *    build only (throwsOnceFired);
 *  - "test-slow" sleeps 150 ms;
 *  - "test-wedged" sleeps 600 ms;
 *  - "test-cancels" raises testCancelFlag and then runs normally.
 * Idempotent.
 */
inline void
registerTestOrganizations()
{
    static bool registered = false;
    if (registered)
        return;
    registered = true;
    auto wrap = [](auto before) {
        return [before](MainMemory &memory, const ApproxRegistry &reg,
                        const RunConfig &cfg, StatRegistry &stats,
                        const std::string &) {
            before();
            return buildLlc("baseline", memory, reg, cfg, stats);
        };
    };
    auto sleepMs = [](int ms) {
        return [ms] {
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        };
    };
    registerLlc("test-throws-always", wrap([] {
                    throw std::runtime_error("builder always throws");
                }));
    registerLlc("test-throws-once", wrap([] {
                    if (!throwsOnceFired.exchange(true))
                        throw std::runtime_error("builder threw once");
                }));
    registerLlc("test-slow", wrap(sleepMs(150)));
    registerLlc("test-wedged", wrap(sleepMs(600)));
    registerLlc("test-cancels", wrap([] {
                    testCancelFlag.store(true, std::memory_order_release);
                }));
}

} // namespace dopp

#endif // DOPP_TESTS_TEST_SUPPORT_HH
