/**
 * @file
 * Minimal JSON support shared by the record-oriented persistence
 * layers (the run journal, harness/journal.hh, and the campaign
 * service's spool files, harness/campaign_service.hh).
 *
 * Not a general-purpose JSON library: it parses exactly the subset the
 * writers in this tree emit (objects, arrays, strings with the
 * writers' escape set, raw number tokens, true/false/null) and keeps
 * number tokens *raw* so integral stats reload as exact u64s (a
 * double round-trip would corrupt counters above 2^53) and reals
 * reload via the strtod shortest-round-trip guarantee the writers
 * rely on (jsonFmtDouble).
 */

#ifndef DOPP_UTIL_JSON_HH
#define DOPP_UTIL_JSON_HH

#include <string>
#include <utility>
#include <vector>

#include "types.hh"

namespace dopp
{

/** Shortest-round-trip decimal form of @p x (std::to_chars) —
 * strtod() reproduces the exact double, so record round-trips are
 * bit-exact. */
std::string jsonFmtDouble(double x);

/** Decimal form of @p x (exact; never goes through a double). */
std::string jsonFmtU64(u64 x);

/** JSON string escaping for names and error messages. */
std::string jsonEscape(const std::string &s);

/**
 * Parsed JSON value. Numbers keep their raw token (see the file
 * comment); strings are unescaped into @ref text.
 */
struct JsonValue
{
    enum class Kind : u8 { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string raw;  ///< number token
    std::string text; ///< string contents
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** First member named @p key, or nullptr. */
    const JsonValue *find(const std::string &key) const;

    /** Exact u64 read of a Number token. */
    bool asU64(u64 &out) const;

    /** strtod read of a Number token (shortest-round-trip exact).
     * Fails a value outside a double's range (it would read as
     * infinity or 0). */
    bool asDouble(double &out) const;
};

/**
 * Recursive-descent parser over one record line. parse() returns
 * false on any malformation, including trailing junk after the value,
 * an object that repeats a key, a number outside JSON's grammar (a
 * leading zero or '+', a bare '.' or exponent) and objects or arrays
 * nested more than 64 deep (the writers nest three) — a truncated or
 * torn record must never half-parse, and a hostile one must not
 * exhaust the stack.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &s)
        : p(s.c_str()), end(s.c_str() + s.size())
    {
    }

    bool parse(JsonValue &out);

  private:
    void skipWs();
    bool literal(const char *lit);
    bool parseString(std::string &out);
    /** Consume a run of decimal digits. @return whether it is
     * non-empty. */
    bool digits();
    bool parseNumber(JsonValue &out);
    bool parseValue(JsonValue &out);

    const char *p;
    const char *end;
    unsigned depth = 0; ///< open objects and arrays at p
};

/**
 * Strict-schema helper: true iff every member of @p obj is one of
 * @p known; otherwise fills @p why naming the first unknown column.
 * Record readers use this so a schema change is a loud discard, not a
 * silent misread.
 */
bool jsonKnownKeysOnly(const JsonValue &obj,
                       const std::vector<const char *> &known,
                       std::string &why);

} // namespace dopp

#endif // DOPP_UTIL_JSON_HH
