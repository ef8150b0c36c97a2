/**
 * @file
 * Error and status reporting, following gem5's panic/fatal split.
 *
 * panic()  — internal invariant violated; a simulator bug. Aborts.
 * fatal()  — user/configuration error; the run cannot continue. Exits.
 * warn()   — something questionable happened but the run continues.
 * inform() — plain status output.
 */

#ifndef DOPP_UTIL_LOGGING_HH
#define DOPP_UTIL_LOGGING_HH

#include <cstdarg>
#include <string>

namespace dopp
{

/** Abort with a formatted message; use for internal invariant failures. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit(1) with a formatted message; use for user/configuration errors. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr; execution continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message to stderr; execution continues. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace dopp

/** Assert-like check that survives NDEBUG builds; panics on failure. */
#define DOPP_ASSERT(cond, ...)                                          \
    do {                                                                \
        if (!(cond)) {                                                  \
            ::dopp::panic("assertion '%s' failed at %s:%d",             \
                          #cond, __FILE__, __LINE__);                   \
        }                                                               \
    } while (0)

#endif // DOPP_UTIL_LOGGING_HH
