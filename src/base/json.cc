#include "json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "base/logging.hh"

namespace chex
{
namespace json
{

Value
Value::object()
{
    Value v;
    v._kind = Kind::Object;
    return v;
}

Value
Value::array()
{
    Value v;
    v._kind = Kind::Array;
    return v;
}

bool
Value::boolean() const
{
    chex_assert(_kind == Kind::Bool, "json: not a bool");
    return _bool;
}

double
Value::number() const
{
    chex_assert(_kind == Kind::Number, "json: not a number");
    return _num;
}

uint64_t
Value::asUint64() const
{
    chex_assert(_kind == Kind::Number, "json: not a number");
    return _exactUint ? _uint : static_cast<uint64_t>(_num);
}

const std::string &
Value::str() const
{
    chex_assert(_kind == Kind::String, "json: not a string");
    return _str;
}

Value &
Value::push(Value v)
{
    if (_kind == Kind::Null)
        _kind = Kind::Array;
    chex_assert(_kind == Kind::Array, "json: push on non-array");
    _items.push_back(std::move(v));
    return *this;
}

Value &
Value::set(const std::string &key, Value v)
{
    if (_kind == Kind::Null)
        _kind = Kind::Object;
    chex_assert(_kind == Kind::Object, "json: set on non-object");
    for (auto &m : _members) {
        if (m.first == key) {
            m.second = std::move(v);
            return *this;
        }
    }
    _members.emplace_back(key, std::move(v));
    return *this;
}

const Value *
Value::find(const std::string &key) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const auto &m : _members)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const Value &
Value::at(const std::string &key) const
{
    const Value *v = find(key);
    if (!v)
        chex_panic("json: missing object member '%s'", key.c_str());
    return *v;
}

const Value &
Value::at(size_t index) const
{
    chex_assert(_kind == Kind::Array, "json: at() on non-array");
    chex_assert(index < _items.size(), "json: array index out of range");
    return _items[index];
}

size_t
Value::size() const
{
    if (_kind == Kind::Array)
        return _items.size();
    if (_kind == Kind::Object)
        return _members.size();
    return 0;
}

void
writeEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\b': os << "\\b"; break;
          case '\f': os << "\\f"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << static_cast<char>(c);
            }
        }
    }
    os << '"';
}

namespace
{

// Largest integer magnitude a double represents exactly.
constexpr double kExactIntLimit = 9007199254740992.0; // 2^53

void
writeNumber(std::ostream &os, double d)
{
    if (!std::isfinite(d)) {
        os << "null"; // JSON has no NaN/Inf
        return;
    }
    char buf[40];
    if (d == std::floor(d) && std::fabs(d) < kExactIntLimit) {
        std::snprintf(buf, sizeof(buf), "%.0f", d);
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", d);
    }
    os << buf;
}

void
newlineIndent(std::ostream &os, unsigned indent, unsigned depth)
{
    os << '\n';
    for (unsigned i = 0; i < indent * depth; ++i)
        os << ' ';
}

} // namespace

void
Value::writeIndented(std::ostream &os, unsigned indent,
                     unsigned depth) const
{
    switch (_kind) {
      case Kind::Null:
        os << "null";
        break;
      case Kind::Bool:
        os << (_bool ? "true" : "false");
        break;
      case Kind::Number:
        if (_exactUint) {
            char buf[24];
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(_uint));
            os << buf;
        } else {
            writeNumber(os, _num);
        }
        break;
      case Kind::String:
        writeEscaped(os, _str);
        break;
      case Kind::Array:
        if (_items.empty()) {
            os << "[]";
            break;
        }
        os << '[';
        for (size_t i = 0; i < _items.size(); ++i) {
            if (i)
                os << ',';
            if (indent)
                newlineIndent(os, indent, depth + 1);
            _items[i].writeIndented(os, indent, depth + 1);
        }
        if (indent)
            newlineIndent(os, indent, depth);
        os << ']';
        break;
      case Kind::Object:
        if (_members.empty()) {
            os << "{}";
            break;
        }
        os << '{';
        for (size_t i = 0; i < _members.size(); ++i) {
            if (i)
                os << ',';
            if (indent)
                newlineIndent(os, indent, depth + 1);
            writeEscaped(os, _members[i].first);
            os << (indent ? ": " : ":");
            _members[i].second.writeIndented(os, indent, depth + 1);
        }
        if (indent)
            newlineIndent(os, indent, depth);
        os << '}';
        break;
    }
}

void
Value::write(std::ostream &os, unsigned indent) const
{
    writeIndented(os, indent, 0);
}

std::string
Value::dump(unsigned indent) const
{
    std::ostringstream ss;
    write(ss, indent);
    return ss.str();
}

namespace
{

/** Recursive-descent parser over a raw character range. */
class Parser
{
  public:
    Parser(const std::string &text) : s(text) {}

    bool
    parse(Value &out, std::string *err)
    {
        bool ok = value(out) && (skipWs(), pos == s.size());
        if (!ok && err)
            *err = error.empty()
                       ? csprintf("json: trailing garbage at byte %zu",
                                  pos)
                       : error;
        return ok;
    }

  private:
    bool
    fail(const char *what)
    {
        if (error.empty())
            error = csprintf("json: %s at byte %zu", what, pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (s.compare(pos, n, lit) != 0)
            return fail("bad literal");
        pos += n;
        return true;
    }

    bool
    value(Value &out)
    {
        skipWs();
        if (pos >= s.size())
            return fail("unexpected end of input");
        switch (s[pos]) {
          case 'n':
            out = Value();
            return literal("null");
          case 't':
            out = Value(true);
            return literal("true");
          case 'f':
            out = Value(false);
            return literal("false");
          case '"': {
            std::string str;
            if (!string(str))
                return false;
            out = Value(std::move(str));
            return true;
          }
          case '[':
            return array(out);
          case '{':
            return object(out);
          default:
            return number(out);
        }
    }

    bool
    string(std::string &out)
    {
        if (s[pos] != '"')
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos];
            if (c == '\\') {
                if (++pos >= s.size())
                    return fail("bad escape");
                switch (s[pos]) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 >= s.size())
                        return fail("bad \\u escape");
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = s[pos + 1 + i];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            cp |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            cp |= h - 'A' + 10;
                        else
                            return fail("bad \\u escape");
                    }
                    pos += 4;
                    // UTF-8 encode the BMP code point (no surrogate
                    // pairing; the writer never emits them).
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xc0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (cp >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((cp >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (cp & 0x3f));
                    }
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
                ++pos;
            } else {
                out += c;
                ++pos;
            }
        }
        if (pos >= s.size())
            return fail("unterminated string");
        ++pos; // closing quote
        return true;
    }

    bool
    number(Value &out)
    {
        size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected value");
        char *end = nullptr;
        std::string tok = s.substr(start, pos - start);
        // Non-negative integer literals that fit uint64 parse
        // exactly, so 64-bit counters/seeds round-trip losslessly.
        if (tok.find_first_of(".eE-") == std::string::npos) {
            errno = 0;
            unsigned long long u = std::strtoull(tok.c_str(), &end, 10);
            if (end && *end == '\0' && errno == 0) {
                out = Value(static_cast<uint64_t>(u));
                return true;
            }
        }
        double d = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0')
            return fail("bad number");
        out = Value(d);
        return true;
    }

    bool
    array(Value &out)
    {
        ++pos; // '['
        out = Value::array();
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            Value elem;
            if (!value(elem))
                return false;
            out.push(std::move(elem));
            skipWs();
            if (pos >= s.size())
                return fail("unterminated array");
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    object(Value &out)
    {
        ++pos; // '{'
        out = Value::object();
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos >= s.size() || s[pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return fail("expected ':'");
            ++pos;
            Value member;
            if (!value(member))
                return false;
            out.set(key, std::move(member));
            skipWs();
            if (pos >= s.size())
                return fail("unterminated object");
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    const std::string &s;
    size_t pos = 0;
    std::string error;
};

} // namespace

bool
Value::parse(const std::string &text, Value &out, std::string *err)
{
    return Parser(text).parse(out, err);
}

} // namespace json
} // namespace chex
