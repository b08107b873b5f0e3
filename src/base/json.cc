#include "json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "base/logging.hh"

namespace chex
{
namespace json
{

Value
Value::object()
{
    Value v;
    v._v.emplace<kObject>();
    return v;
}

Value
Value::array()
{
    Value v;
    v._v.emplace<kArray>();
    return v;
}

Value::Kind
Value::kind() const
{
    static constexpr Kind kinds[] = {Kind::Null,   Kind::Bool,
                                     Kind::Number, Kind::Number,
                                     Kind::String, Kind::Array,
                                     Kind::Object};
    return kinds[_v.index()];
}

bool
Value::boolean() const
{
    chex_assert(isBool(), "json: not a bool");
    return std::get<kBool>(_v);
}

double
Value::number() const
{
    chex_assert(isNumber(), "json: not a number");
    return isUint64() ? static_cast<double>(std::get<kUint>(_v))
                      : std::get<kDouble>(_v);
}

uint64_t
Value::asUint64() const
{
    chex_assert(isNumber(), "json: not a number");
    return isUint64() ? std::get<kUint>(_v)
                      : static_cast<uint64_t>(std::get<kDouble>(_v));
}

const std::string &
Value::str() const
{
    chex_assert(isString(), "json: not a string");
    return std::get<kString>(_v);
}

Value &
Value::push(Value v)
{
    if (isNull())
        _v.emplace<kArray>();
    chex_assert(isArray(), "json: push on non-array");
    std::get<kArray>(_v).push_back(std::move(v));
    return *this;
}

Value &
Value::set(const std::string &key, Value v)
{
    if (isNull())
        _v.emplace<kObject>();
    chex_assert(isObject(), "json: set on non-object");
    Members &members = std::get<kObject>(_v);
    for (auto &m : members) {
        if (m.first == key) {
            m.second = std::move(v);
            return *this;
        }
    }
    members.emplace_back(key, std::move(v));
    return *this;
}

const Value *
Value::find(const std::string &key) const
{
    for (const auto &m : members())
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
    chex_assert(isArray(), "json: at() on non-array");
    chex_assert(index < items().size(), "json: array index out of range");
    return items()[index];
}

size_t
Value::size() const
{
    return isArray() ? items().size() : members().size();
}

const Value::Items &
Value::items() const
{
    static const Items none;
    const Items *items = std::get_if<kArray>(&_v);
    return items ? *items : none;
}

const Value::Members &
Value::members() const
{
    static const Members none;
    const Members *members = std::get_if<kObject>(&_v);
    return members ? *members : none;
}

namespace
{

// Largest integer magnitude a double represents exactly.
constexpr double kExactIntLimit = 9007199254740992.0; // 2^53

/** A byte a JSON string cannot hold raw: a quote, a backslash, or a
 * control byte. */
bool
special(unsigned char c)
{
    return c < 0x20 || c == '"' || c == '\\';
}

/**
 * The offset of the first special() byte of @p s at or after @p i,
 * or s.size(). Eight bytes at a time: a word with no zero byte
 * after XOR with '"' or '\\', and none below 0x20, is skipped
 * whole (the bit tricks may flag a clean word, never miss a byte).
 */
size_t
plainRun(std::string_view s, size_t i)
{
    constexpr uint64_t ones = 0x0101010101010101ull;
    constexpr uint64_t highs = 0x8080808080808080ull;
    for (; i + 8 <= s.size(); i += 8) {
        uint64_t w;
        std::memcpy(&w, s.data() + i, 8);
        uint64_t quote = w ^ (ones * '"');
        uint64_t backslash = w ^ (ones * '\\');
        if ((((w - ones * 0x20) & ~w) | ((quote - ones) & ~quote) |
             ((backslash - ones) & ~backslash)) &
            highs)
            break;
    }
    while (i < s.size() && !special(s[i]))
        ++i;
    return i;
}

/** @p s as a quoted JSON string; runs needing no escape go in bulk. */
void
appendEscaped(std::string &out, std::string_view s)
{
    out += '"';
    for (size_t run = 0;;) {
        size_t i = plainRun(s, run);
        out.append(s, run, i - run);
        if (i == s.size())
            break;
        run = i + 1;
        unsigned char c = s[i];
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            out += "\\u00";
            out += "0123456789abcdef"[c >> 4];
            out += "0123456789abcdef"[c & 0xf];
        }
    }
    out += '"';
}

void
appendUint(std::string &out, uint64_t u)
{
    char buf[20];
    char *end = std::to_chars(buf, buf + sizeof(buf), u).ptr;
    out.append(buf, end);
}

void
appendDouble(std::string &out, double d)
{
    if (!std::isfinite(d)) {
        out += "null"; // JSON has no NaN/Inf
        return;
    }
    char buf[40];
    int n = d == std::floor(d) && std::fabs(d) < kExactIntLimit
                ? std::snprintf(buf, sizeof(buf), "%.0f", d)
                : std::snprintf(buf, sizeof(buf), "%.17g", d);
    out.append(buf, n);
}

void
newlineIndent(std::string &out, unsigned indent, unsigned depth)
{
    out += '\n';
    out.append(size_t{indent} * depth, ' ');
}

} // namespace

void
Value::append(std::string &out, unsigned indent, unsigned depth) const
{
    switch (_v.index()) {
      case kNull:
        out += "null";
        break;
      case kBool:
        out += std::get<kBool>(_v) ? "true" : "false";
        break;
      case kDouble:
        appendDouble(out, std::get<kDouble>(_v));
        break;
      case kUint:
        appendUint(out, std::get<kUint>(_v));
        break;
      case kString:
        appendEscaped(out, std::get<kString>(_v));
        break;
      case kArray: {
        const Items &items = std::get<kArray>(_v);
        if (items.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ',';
            if (indent)
                newlineIndent(out, indent, depth + 1);
            items[i].append(out, indent, depth + 1);
        }
        if (indent)
            newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case kObject: {
        const Members &members = std::get<kObject>(_v);
        if (members.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (size_t i = 0; i < members.size(); ++i) {
            if (i)
                out += ',';
            if (indent)
                newlineIndent(out, indent, depth + 1);
            appendEscaped(out, members[i].first);
            out += indent ? ": " : ":";
            members[i].second.append(out, indent, depth + 1);
        }
        if (indent)
            newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

void
Value::write(std::ostream &os, unsigned indent) const
{
    std::string text = dump(indent);
    os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string
Value::dump(unsigned indent) const
{
    std::string out;
    append(out, indent, 0);
    return out;
}

/** Recursive-descent parser over a raw character range. */
class Parser
{
  public:
    Parser(const std::string &text) : s(text) {}

    bool
    parse(Value &out, std::string *err)
    {
        bool ok = value(out, 0) && (skipWs(), pos == s.size());
        if (!ok && err)
            *err = error.empty()
                       ? csprintf("json: trailing garbage at byte %zu",
                                  pos)
                       : error;
        return ok;
    }

  private:
    // Deeper documents are refused rather than risk the stack; the
    // documents this project writes nest a few levels deep.
    static constexpr unsigned kMaxDepth = 512;

    bool
    fail(const char *what)
    {
        if (error.empty())
            error = csprintf("json: %s at byte %zu", what, pos);
        return false;
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    bool more() const { return pos < s.size(); }

    void
    skipWs()
    {
        while (more() && (s[pos] == ' ' || s[pos] == '\t' ||
                          s[pos] == '\n' || s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(std::string_view lit)
    {
        if (s.compare(pos, lit.size(), lit) != 0)
            return fail("bad literal");
        pos += lit.size();
        return true;
    }

    bool
    value(Value &out, unsigned depth)
    {
        skipWs();
        if (!more())
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
          case '"':
            return string(out._v.emplace<Value::kString>());
          case '[':
            return depth < kMaxDepth ? array(out, depth + 1)
                                     : fail("nesting too deep");
          case '{':
            return depth < kMaxDepth ? object(out, depth + 1)
                                     : fail("nesting too deep");
          default:
            return number(out);
        }
    }

    /** Four hex digits after "\u" at pos; advances past them. */
    bool
    hex4(unsigned &cp)
    {
        if (s.size() - pos < 4)
            return fail("bad \\u escape");
        cp = 0;
        for (int i = 0; i < 4; ++i, ++pos) {
            char h = s[pos];
            cp <<= 4;
            if (isDigit(h))
                cp |= h - '0';
            else if (h >= 'a' && h <= 'f')
                cp |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F')
                cp |= h - 'A' + 10;
            else
                return fail("bad \\u escape");
        }
        return true;
    }

    bool
    string(std::string &out)
    {
        ++pos; // opening quote
        for (;;) {
            // The run up to the next quote, escape or control byte
            // goes in whole.
            size_t run = pos;
            pos = plainRun(s, pos);
            out.append(s, run, pos - run);
            if (!more())
                return fail("unterminated string");
            char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c != '\\')
                return fail("control character in string");
            if (++pos >= s.size())
                return fail("bad escape");
            switch (s[pos++]) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned cp;
                if (!hex4(cp))
                    return false;
                // UTF-8 encode the BMP code point. Surrogates are
                // not characters; the writer never emits them.
                if (cp >= 0xd800 && cp <= 0xdfff) {
                    pos -= 6;
                    return fail("surrogate \\u escape");
                }
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                --pos;
                return fail("bad escape");
            }
        }
    }

    /** Skips a run of digits; false when there is none. */
    bool
    digits()
    {
        size_t start = pos;
        while (more() && isDigit(s[pos]))
            ++pos;
        return pos > start;
    }

    bool
    number(Value &out)
    {
        // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        size_t start = pos;
        bool negative = s[pos] == '-';
        if (negative)
            ++pos;
        if (!more() || !isDigit(s[pos]))
            return negative ? fail("bad number") : fail("expected value");
        if (s[pos] == '0' && pos + 1 < s.size() && isDigit(s[pos + 1])) {
            ++pos;
            return fail("leading zero in number");
        }
        digits();
        bool integer = true;
        if (more() && s[pos] == '.') {
            ++pos;
            if (!digits())
                return fail("bad number");
            integer = false;
        }
        if (more() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (more() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            if (!digits())
                return fail("bad number");
            integer = false;
        }
        const char *first = s.data() + start;
        const char *last = s.data() + pos;
        // Non-negative integer literals that fit uint64 parse
        // exactly, so 64-bit counters/seeds round-trip losslessly.
        if (integer && !negative) {
            uint64_t u;
            if (std::from_chars(first, last, u).ec == std::errc()) {
                out._v.emplace<Value::kUint>(u);
                return true;
            }
        }
        double d;
        if (std::from_chars(first, last, d).ec != std::errc()) {
            pos = start;
            return fail("number out of double range");
        }
        out._v.emplace<Value::kDouble>(d);
        return true;
    }

    bool
    array(Value &out, unsigned depth)
    {
        ++pos; // '['
        Value::Items &items = out._v.emplace<Value::kArray>();
        skipWs();
        if (more() && s[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            if (!value(items.emplace_back(), depth))
                return false;
            skipWs();
            if (!more())
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
    object(Value &out, unsigned depth)
    {
        size_t start = pos;
        ++pos; // '{'
        Value::Members &members = out._v.emplace<Value::kObject>();
        skipWs();
        if (more() && s[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (!more() || s[pos] != '"')
                return fail("expected object key");
            auto &member = members.emplace_back();
            if (!string(member.first))
                return false;
            skipWs();
            if (!more() || s[pos] != ':')
                return fail("expected ':'");
            ++pos;
            if (!value(member.second, depth))
                return false;
            skipWs();
            if (!more())
                return fail("unterminated object");
            if (s[pos] == ',') {
                ++pos;
                continue;
            }
            if (s[pos] == '}') {
                ++pos;
                break;
            }
            return fail("expected ',' or '}'");
        }
        if (const std::string *key = repeatedKey(members)) {
            pos = start;
            return fail(csprintf("repeated key \"%s\" in object",
                                 key->c_str())
                            .c_str());
        }
        return true;
    }

    /** A key that appears twice in @p members, or nullptr. */
    static const std::string *
    repeatedKey(const Value::Members &members)
    {
        // Small objects (every field-list record) compare pairwise;
        // larger ones sort their keys, so neither is quadratic in a
        // way that matters.
        constexpr size_t kPairwise = 16;
        if (members.size() <= kPairwise) {
            for (size_t i = 1; i < members.size(); ++i)
                for (size_t j = 0; j < i; ++j)
                    if (members[i].first == members[j].first)
                        return &members[i].first;
            return nullptr;
        }
        std::vector<const std::string *> keys;
        keys.reserve(members.size());
        for (const auto &m : members)
            keys.push_back(&m.first);
        auto less = [](const std::string *a, const std::string *b) {
            return *a < *b;
        };
        std::sort(keys.begin(), keys.end(), less);
        auto same = std::adjacent_find(
            keys.begin(), keys.end(),
            [](const std::string *a, const std::string *b) {
                return *a == *b;
            });
        return same == keys.end() ? nullptr : *same;
    }

    const std::string &s;
    size_t pos = 0;
    std::string error;
};

bool
Value::parse(const std::string &text, Value &out, std::string *err)
{
    return Parser(text).parse(out, err);
}

} // namespace json
} // namespace chex
