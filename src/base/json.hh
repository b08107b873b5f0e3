/**
 * @file
 * A minimal dependency-free JSON value type with a writer and a
 * strict recursive-descent parser.
 *
 * The campaign driver uses it to emit machine-readable reports and
 * the tests use the parser to round-trip them; snapshots and
 * System::dumpStatsJson use it for structured state.
 *
 * Layout: a Value is one std::variant of null, bool, double, exact
 * uint64, string, array (a vector of Values) or object (a vector of
 * key/value pairs in insertion order) — 40 bytes, asserted below.
 *
 * Numbers: a non-negative integer built from an integer type, or
 * parsed from an integer literal that fits uint64, is held exactly
 * and written as its digits; every other number is a double, written
 * as "%.0f" when integral with magnitude below 2^53 and "%.17g"
 * otherwise, so each double round-trips bit for bit. NaN and
 * infinities are written as null.
 *
 * The parser reads RFC 8259 JSON and nothing else: numbers follow
 * its grammar (no '+', leading zeros, bare '.' or 'inf') and must be
 * in double range, strings may hold no raw control bytes and no
 * \uD800-\uDFFF escapes, object keys may not repeat, and nesting is
 * bounded. Every error names its byte offset.
 */

#ifndef CHEX_BASE_JSON_HH
#define CHEX_BASE_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace chex
{
namespace json
{

/** One JSON value (null, bool, number, string, array, or object). */
class Value
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    using Items = std::vector<Value>;
    using Members = std::vector<std::pair<std::string, Value>>;

    Value() = default;
    Value(std::nullptr_t) {}
    Value(bool b) : _v(std::in_place_index<kBool>, b) {}
    Value(double d) : _v(std::in_place_index<kDouble>, d) {}
    // Non-negative signed integers are exact too, so asUint64()
    // never round-trips an int-constructed counter through its
    // double approximation.
    Value(int i) : Value(static_cast<int64_t>(i)) {}
    Value(unsigned u) : Value(static_cast<uint64_t>(u)) {}
    Value(int64_t i)
    {
        if (i >= 0)
            _v.emplace<kUint>(static_cast<uint64_t>(i));
        else
            _v.emplace<kDouble>(static_cast<double>(i));
    }
    // Unsigned 64-bit values (counters, seeds) stay exact: the
    // writer prints the integer, not its double approximation.
    Value(uint64_t u) : _v(std::in_place_index<kUint>, u) {}
    Value(const char *s) : _v(std::in_place_index<kString>, s) {}
    Value(std::string s)
        : _v(std::in_place_index<kString>, std::move(s)) {}

    /** Empty-aggregate factories (distinguish {} from []). */
    static Value object();
    static Value array();

    Kind kind() const;
    bool isNull() const { return _v.index() == kNull; }
    bool isBool() const { return _v.index() == kBool; }
    bool
    isNumber() const
    {
        return _v.index() == kDouble || _v.index() == kUint;
    }
    bool isString() const { return _v.index() == kString; }
    bool isArray() const { return _v.index() == kArray; }
    bool isObject() const { return _v.index() == kObject; }
    /** A number held exactly as a non-negative integer. */
    bool isUint64() const { return _v.index() == kUint; }

    /** @{ @name Typed accessors (panic on kind mismatch) */
    bool boolean() const;
    double number() const;
    /**
     * The number as an exact uint64 when it was written/parsed as a
     * non-negative integer literal; otherwise the double, cast.
     */
    uint64_t asUint64() const;
    const std::string &str() const;
    /** @} */

    /** Append to an array (converts a Null value to an array). */
    Value &push(Value v);

    /**
     * Set an object member (converts a Null value to an object);
     * returns *this so construction chains.
     */
    Value &set(const std::string &key, Value v);

    /** Object member lookup; nullptr when absent or not an object. */
    const Value *find(const std::string &key) const;

    /** Object member by key; panics when absent. */
    const Value &at(const std::string &key) const;

    /** Array element by index; panics when out of range. */
    const Value &at(size_t index) const;

    /** Element/member count (0 for scalars). */
    size_t size() const;

    /** The elements; empty unless an array. */
    const Items &items() const;
    /** The members in insertion order; empty unless an object. */
    const Members &members() const;

    /**
     * Serialize. @p indent 0 writes compact single-line JSON;
     * positive values pretty-print with that many spaces per level.
     */
    void write(std::ostream &os, unsigned indent = 0) const;

    /** The text write() writes. */
    std::string dump(unsigned indent = 0) const;

    /**
     * Strict RFC 8259 parse of @p text (whole-input; trailing
     * garbage is an error). Returns false and fills @p err (if
     * non-null) on malformed input.
     */
    static bool parse(const std::string &text, Value &out,
                      std::string *err = nullptr);

  private:
    friend class Parser;

    /** The variant's alternative indices. */
    enum : size_t
    {
        kNull,
        kBool,
        kDouble,
        kUint,
        kString,
        kArray,
        kObject,
    };

    void append(std::string &out, unsigned indent, unsigned depth) const;

    std::variant<std::monostate, bool, double, uint64_t, std::string,
                 Items, Members>
        _v;
};

static_assert(sizeof(Value) <= 40, "json::Value grew past 40 bytes");

} // namespace json
} // namespace chex

#endif // CHEX_BASE_JSON_HH
