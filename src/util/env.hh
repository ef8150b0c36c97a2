/**
 * @file
 * Strict parsing for tuning knobs (environment variables and flags).
 *
 * An unset variable yields the fallback; a set variable must parse
 * completely as an in-range value of the requested type, otherwise the
 * run dies with a fatal error naming the variable. Silently mapping
 * garbage (DOPP_JOBS=abc) or out-of-range values to the fallback, or
 * wrapping them, hides misconfigured sweeps, so we refuse instead.
 */

#ifndef DOPP_UTIL_ENV_HH
#define DOPP_UTIL_ENV_HH

#include <limits>
#include <string>

#include "types.hh"

namespace dopp
{

/**
 * Parse knob @p name's value @p text as a whole decimal number in
 * [@p lo, @p hi] (@p hi: the destination type's maximum); anything
 * else (empty, a sign, junk, out of range) is fatal, naming both.
 */
u64 parseU64(const char *name, const char *text, u64 lo, u64 hi);

/**
 * Parse knob @p name's value @p text as a whole finite number (strtod
 * syntax); anything else (empty, junk, trailing text, inf, nan, out
 * of range) is fatal, naming both.
 */
double parseDouble(const char *name, const char *text);

/** parseDouble that must also be > 0, else fatal naming both. */
double parsePositiveDouble(const char *name, const char *text);

/** Read @p name as parseU64(name, value, 1, @p hi). Unset: @p fallback. */
u64 envU64(const char *name, u64 fallback,
           u64 hi = std::numeric_limits<u64>::max());

/** Read @p name as parsePositiveDouble(name, value). Unset:
 * @p fallback. */
double envDouble(const char *name, double fallback);

/**
 * Read @p name as a boolean flag. Unset: @p fallback. Set: must be
 * exactly "0" or "1" (a sweep exporting FLAG=yes or FLAG= should die,
 * not silently pick a default), otherwise fatal.
 */
bool envFlag(const char *name, bool fallback);

/**
 * Read @p name as a non-empty token (e.g. a policy name like
 * DOPP_SLICE_HASH=sandybridge). Unset: @p fallback. Set to the empty
 * string: fatal, naming the variable — an exported-but-empty knob is
 * a misconfigured sweep, not a request for the default. Token
 * *validity* is the caller's to check (it knows the legal names).
 */
std::string envToken(const char *name, const std::string &fallback);

} // namespace dopp

#endif // DOPP_UTIL_ENV_HH
