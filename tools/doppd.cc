/**
 * @file
 * doppd — the campaign sweep daemon (DESIGN.md §16).
 *
 *   doppd --spool DIR [--workers N] [--lease-ms N]
 *         [--heartbeat-ms N] [--scan-ms N] [--max-failures N]
 *         [--oneshot] [--max-runtime-ms N]
 *
 * Watches DIR/spool for JSONL batches (doppctl submit), schedules
 * their configs across N worker processes coordinating through the
 * shared journal's claim/lease protocol, and writes status and
 * results files for doppctl to poll. A worker runs one config at a
 * time, so N is the sweep's parallelism. Each config gets up to
 * --max-failures attempts (default 2, at least 1) in the worker that
 * claimed it, through the batch runner's attempt loop; a success or
 * the last failure is its one journal record. SIGTERM/SIGINT and
 * doppctl stop are graceful: each worker's attempt in flight finishes
 * and is journaled (a retry backoff is cut short and records
 * nothing), the rest stays unrun. SIGKILLing a *worker* is safe — its
 * in-flight claim is reclaimed by the surviving workers after lease
 * expiry, and the daemon respawns a replacement.
 *
 * --workers 0 (the default) runs a single worker in-process: handy
 * under a debugger, and what the tests drive. --oneshot exits once
 * every submitted batch has drained, instead of waiting for more.
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "harness/campaign_service.hh"
#include "util/env.hh"
#include "util/logging.hh"

using namespace dopp;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: doppd --spool DIR [--workers N] [--lease-ms N]\n"
        "             [--heartbeat-ms N] [--scan-ms N]\n"
        "             [--max-failures N] [--oneshot]\n"
        "             [--max-runtime-ms N]\n");
    std::exit(2);
}

/** Strict flag value: whole digits in [@p lo, max of @p T], else
 * fatal. */
template <typename T>
T
flagValue(const char *flag, const char *value, u64 lo = 0)
{
    return static_cast<T>(
        parseU64(flag, value, lo, std::numeric_limits<T>::max()));
}

} // namespace

int
main(int argc, char **argv)
{
    CampaignServiceOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--spool")
            opts.spoolRoot = value();
        else if (arg == "--workers")
            opts.workers = flagValue<unsigned>("--workers", value());
        else if (arg == "--lease-ms")
            opts.leaseMs = flagValue<u64>("--lease-ms", value());
        else if (arg == "--heartbeat-ms")
            opts.heartbeatMs = flagValue<u64>("--heartbeat-ms", value());
        else if (arg == "--scan-ms")
            opts.scanMs = flagValue<u64>("--scan-ms", value());
        else if (arg == "--max-failures")
            opts.maxFailures =
                flagValue<unsigned>("--max-failures", value(), 1);
        else if (arg == "--oneshot")
            opts.exitWhenIdle = true;
        else if (arg == "--max-runtime-ms")
            opts.maxRuntimeMs = flagValue<u64>("--max-runtime-ms", value());
        else
            usage();
    }
    if (opts.spoolRoot.empty())
        usage();
    if (opts.heartbeatMs > opts.leaseMs / 2) {
        fatal("--heartbeat-ms %llu must be at most half of "
              "--lease-ms %llu, or live leases get stolen",
              static_cast<unsigned long long>(opts.heartbeatMs),
              static_cast<unsigned long long>(opts.leaseMs));
    }
    return runCampaignDaemon(opts);
}
