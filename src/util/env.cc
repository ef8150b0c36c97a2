#include "env.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "logging.hh"

namespace dopp
{

u64
parseU64(const char *name, const char *text, u64 lo, u64 hi)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    // strtoull skips blanks and negates after a '-' ("-1" is 2^64-1):
    // only a run of plain digits is a value.
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || v < lo || v > hi) {
        fatal("%s='%s' is not %s integer in [%llu, %llu]", name, text,
              lo ? "a positive" : "an", static_cast<unsigned long long>(lo),
              static_cast<unsigned long long>(hi));
    }
    return static_cast<u64>(v);
}

u64
envU64(const char *name, u64 fallback, u64 hi)
{
    const char *v = std::getenv(name);
    return v ? parseU64(name, v, 1, hi) : fallback;
}

namespace
{

/** strtod of all of @p text into @p out; false on anything else. */
bool
wholeFiniteDouble(const char *text, double &out)
{
    errno = 0;
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && errno != ERANGE &&
        std::isfinite(out);
}

} // namespace

double
parseDouble(const char *name, const char *text)
{
    double v = 0.0;
    if (!wholeFiniteDouble(text, v))
        fatal("%s='%s' is not a finite number", name, text);
    return v;
}

double
parsePositiveDouble(const char *name, const char *text)
{
    double v = 0.0;
    if (!wholeFiniteDouble(text, v) || v <= 0.0)
        fatal("%s='%s' is not a positive number", name, text);
    return v;
}

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    return v ? parsePositiveDouble(name, v) : fallback;
}

bool
envFlag(const char *name, bool fallback)
{
    const char *v = std::getenv(name);
    if (!v)
        return fallback;
    if (v[0] != '\0' && v[1] == '\0') {
        if (v[0] == '0')
            return false;
        if (v[0] == '1')
            return true;
    }
    fatal("%s='%s' is not a boolean flag (use 0 or 1)", name, v);
    return fallback;
}

std::string
envToken(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    if (!v)
        return fallback;
    if (*v == '\0')
        fatal("%s is set but empty (unset it for the default '%s')",
              name, fallback.c_str());
    return v;
}

} // namespace dopp
