#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dopp
{

std::string
jsonFmtDouble(double x)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), x);
    return std::string(buf, res.ptr);
}

std::string
jsonFmtU64(u64 x)
{
    return std::to_string(x);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &[k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

bool
JsonValue::asU64(u64 &out) const
{
    if (kind != Kind::Number)
        return false;
    const char *b = raw.c_str();
    const char *e = b + raw.size();
    const auto res = std::from_chars(b, e, out);
    return res.ec == std::errc() && res.ptr == e;
}

bool
JsonValue::asDouble(double &out) const
{
    if (kind != Kind::Number)
        return false;
    const char *b = raw.c_str();
    char *end = nullptr;
    out = std::strtod(b, &end);
    if (end != b + raw.size())
        return false;
    // Out of a double's range: too large reads as infinity, too small
    // as 0 although the mantissa has a non-zero digit.
    const bool underflow = out == 0.0 &&
        raw.find_first_of("123456789") < raw.find_first_of("eE");
    return !std::isinf(out) && !underflow;
}

bool
JsonParser::parse(JsonValue &out)
{
    skipWs();
    if (!parseValue(out))
        return false;
    skipWs();
    return p == end; // trailing junk is malformation
}

void
JsonParser::skipWs()
{
    while (p < end &&
           (*p == ' ' || *p == '\t' || *p == '\r' || *p == '\n')) {
        ++p;
    }
}

bool
JsonParser::literal(const char *lit)
{
    const char *q = p;
    while (*lit) {
        if (q >= end || *q != *lit)
            return false;
        ++q;
        ++lit;
    }
    p = q;
    return true;
}

bool
JsonParser::parseString(std::string &out)
{
    if (p >= end || *p != '"')
        return false;
    ++p;
    out.clear();
    while (p < end && *p != '"') {
        char c = *p++;
        if (c == '\\') {
            if (p >= end)
                return false;
            const char esc = *p++;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                  if (end - p < 4)
                      return false;
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = *p++;
                      code <<= 4;
                      if (h >= '0' && h <= '9')
                          code |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          code |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          code |= static_cast<unsigned>(h - 'A' + 10);
                      else
                          return false;
                  }
                  // The writers only emit \u00xx control escapes.
                  if (code > 0xff)
                      return false;
                  out += static_cast<char>(code);
                  break;
              }
              default: return false;
            }
        } else {
            out += c;
        }
    }
    if (p >= end)
        return false;
    ++p; // closing quote
    return true;
}

bool
JsonParser::digits()
{
    const char *start = p;
    while (p < end && *p >= '0' && *p <= '9')
        ++p;
    return p > start;
}

bool
JsonParser::parseNumber(JsonValue &out)
{
    // JSON's grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    const char *start = p;
    if (p < end && *p == '-')
        ++p;
    if (p < end && *p == '0')
        ++p;
    else if (!digits())
        return false;
    if (p < end && *p == '.') {
        ++p;
        if (!digits())
            return false;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        ++p;
        if (p < end && (*p == '-' || *p == '+'))
            ++p;
        if (!digits())
            return false;
    }
    out.kind = JsonValue::Kind::Number;
    out.raw.assign(start, p);
    return true;
}

bool
JsonParser::parseValue(JsonValue &out)
{
    skipWs();
    if (p >= end)
        return false;
    // Bound the recursion: a line of nested brackets would otherwise
    // exhaust the stack before it failed to parse.
    constexpr unsigned maxDepth = 64;
    if ((*p == '{' || *p == '[') && ++depth > maxDepth)
        return false;
    switch (*p) {
      case '{': {
          ++p;
          out.kind = JsonValue::Kind::Object;
          skipWs();
          if (p < end && *p == '}') {
              ++p;
              --depth;
              return true;
          }
          for (;;) {
              skipWs();
              std::string key;
              if (!parseString(key))
                  return false;
              skipWs();
              if (p >= end || *p != ':')
                  return false;
              ++p;
              // A repeated key is malformation: which one a reader
              // took would be a guess.
              if (out.find(key))
                  return false;
              JsonValue v;
              if (!parseValue(v))
                  return false;
              out.object.emplace_back(std::move(key), std::move(v));
              skipWs();
              if (p < end && *p == ',') {
                  ++p;
                  continue;
              }
              if (p < end && *p == '}') {
                  ++p;
                  --depth;
                  return true;
              }
              return false;
          }
      }
      case '[': {
          ++p;
          out.kind = JsonValue::Kind::Array;
          skipWs();
          if (p < end && *p == ']') {
              ++p;
              --depth;
              return true;
          }
          for (;;) {
              JsonValue v;
              if (!parseValue(v))
                  return false;
              out.array.push_back(std::move(v));
              skipWs();
              if (p < end && *p == ',') {
                  ++p;
                  continue;
              }
              if (p < end && *p == ']') {
                  ++p;
                  --depth;
                  return true;
              }
              return false;
          }
      }
      case '"':
        out.kind = JsonValue::Kind::String;
        return parseString(out.text);
      case 't':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = JsonValue::Kind::Bool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = JsonValue::Kind::Null;
        return literal("null");
      default:
        return parseNumber(out);
    }
}

bool
jsonKnownKeysOnly(const JsonValue &obj,
                  const std::vector<const char *> &known,
                  std::string &why)
{
    for (const auto &[k, v] : obj.object) {
        (void)v;
        bool ok = false;
        for (const char *name : known)
            ok = ok || k == name;
        if (!ok) {
            why = "unknown schema column '" + k + "'";
            return false;
        }
    }
    return true;
}

} // namespace dopp
