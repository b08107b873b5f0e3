/**
 * @file
 * One field list per struct, walked in both directions. A struct's
 * members are named once, in a `fields(s, f)` function — a static
 * member or one found by argument-dependent lookup — that calls
 * `f("name", s.member)` for each; encode() walks it with a writer and
 * decode() with a strict reader, so the two directions cannot drift
 * apart. Campaign reports (driver/report.cc) and snapshot machine
 * state (DESIGN.md §9) are both built on it.
 *
 * The reader's rules: every listed member is required (unknown ones
 * are ignored); booleans, strings, numbers, arrays and objects must
 * have that kind; integers must be exact and in the member's range;
 * pairs must have two elements. The first bad member stops the walk,
 * and the error names its path below the value read
 * (".result.cycles is missing", "[3].slot is not an unsigned integer
 * in range").
 *
 * Members that are not plain fields carry their own codec: a type
 * with `Value encode() const` and `bool decode(const Value &,
 * std::string *why)` members is written and read through them (why
 * gets the problem, or the path below the member and its problem).
 * The generic ones are below.
 */

#ifndef CHEX_BASE_FIELDS_HH
#define CHEX_BASE_FIELDS_HH

#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/json.hh"

namespace chex
{
namespace json
{

/** S is T, possibly const: constrains `fields(S &s, F &&f)`. */
template <typename S, typename T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

/** Sets @p why to @p problem; returns false. */
inline bool
reject(std::string *why, std::string problem)
{
    *why = std::move(problem);
    return false;
}

template <typename T>
Value encode(const T &field);
template <typename T>
bool decode(const Value &v, T &out, std::string *why);

/** The object whose members @p list names: list(f) calls
 * f("name", member) once per member. */
template <typename L>
Value
encodeObject(const L &list)
{
    Value obj = Value::object();
    auto write = [&](const char *name, const auto &member) {
        obj.set(name, encode(member));
    };
    list(write);
    return obj;
}

template <typename L>
bool
decodeObject(const Value &v, const L &list, std::string *why)
{
    if (!v.isObject())
        return reject(why, " is not an object");
    // Members normally arrive in field-list order, so the next one
    // is tried before searching.
    const auto &members = v.members();
    size_t next = 0;
    bool ok = true;
    auto read = [&](const char *name, auto &&member) {
        if (!ok)
            return;
        const Value *m = next < members.size() && members[next].first == name
                             ? &members[next++].second
                             : v.find(name);
        if (m && decode(*m, member, why))
            return;
        *why = std::string(".") + name + (m ? *why : " is missing");
        ok = false;
    };
    list(read);
    return ok;
}

namespace detail
{

/** Calls @p obj's field list: a static T::fields, or a fields()
 * found by argument-dependent lookup. */
template <typename T, typename F>
void
listFields(T &obj, F &f)
{
    using Plain = std::remove_const_t<T>;
    if constexpr (requires { Plain::fields(obj, f); })
        Plain::fields(obj, f);
    else
        fields(obj, f);
}

/** decode() of one array element; the path gains "[i]". */
template <typename T>
bool
decodeElement(const Value &item, size_t i, T &out, std::string *why)
{
    if (decode(item, out, why))
        return true;
    *why = "[" + std::to_string(i) + "]" + *why;
    return false;
}

} // namespace detail

/** @{ The object @p obj's field list describes, for the encode() and
 * decode() members of types that add a step to the plain walk. */
template <typename T>
Value
encodeFields(const T &obj)
{
    return encodeObject([&](auto &f) { detail::listFields(obj, f); });
}

template <typename T>
bool
decodeFields(const Value &v, T &obj, std::string *why)
{
    return decodeObject(
        v, [&](auto &f) { detail::listFields(obj, f); }, why);
}
/** @} */

/** A nested object whose members are the field list @p list. */
template <typename List>
struct Group
{
    List list;

    Value encode() const { return encodeObject(list); }

    bool
    decode(const Value &v, std::string *why) const
    {
        return decodeObject(v, list, why);
    }
};

/**
 * The enum value whose name() is @p v's string. Tokens are the
 * names of E(0), E(1), ... up to the first value name() does not
 * know ("???"), so a new enumerator is readable once it is named.
 */
template <typename E>
bool
decodeToken(const Value &v, E &out, const char *(*name)(E))
{
    for (unsigned i = 0; v.isString() && i < 256; ++i) {
        std::string token = name(static_cast<E>(i));
        if (token == "???")
            break;
        if (token == v.str()) {
            out = static_cast<E>(i);
            return true;
        }
    }
    return false;
}

/** An enum member written as its name() token. */
template <typename E>
struct Token
{
    E &value;
    const char *(*name)(std::remove_const_t<E>);

    Value encode() const { return name(value); }

    bool
    decode(const Value &v, std::string *why) const
    {
        return decodeToken(v, value, name) ||
               reject(why, " is not a known name");
    }
};

/**
 * Configuration written next to the state it shapes (a cache's
 * geometry, a format tag): the reader requires the value it is
 * built with, and reports @p mismatch (or " is not <value>").
 */
template <typename T>
struct Pinned
{
    T value;
    const char *mismatch = nullptr;

    Value encode() const { return json::encode(value); }

    bool
    decode(const Value &v, std::string *why) const
    {
        T got{};
        if (json::decode(v, got, why) && got == value)
            return true;
        return reject(why, mismatch ? std::string(mismatch)
                                    : " is not " + encode().dump());
    }
};

/** A 64-bit digest (a spec or state hash) written as its 16
 * lowercase hex digits. */
template <typename U>
struct Hex64
{
    U &value;

    Value
    encode() const
    {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(value));
        return hex;
    }

    bool
    decode(const Value &v, std::string *why) const
    {
        if (!v.isString() || v.str().size() != 16 ||
            v.str().find_first_not_of("0123456789abcdef") !=
                std::string::npos)
            return reject(why, " is not 16 lowercase hex digits");
        value = std::stoull(v.str(), nullptr, 16);
        return true;
    }
};

/** The element itself: FixedLength's default element codec. */
struct Identity
{
    template <typename T>
    T &
    operator()(T &item) const
    {
        return item;
    }
};

/**
 * A container whose length is configuration (a register file, a
 * predictor's return stack): an array read back only at the
 * container's current length. Each element goes through the codec
 * make(element) returns, by default the element itself.
 */
template <typename V, typename M = Identity>
struct FixedLength
{
    V &items;
    M make = {};

    Value
    encode() const
    {
        Value out = Value::array();
        for (auto &item : items)
            out.push(json::encode(make(item)));
        return out;
    }

    bool
    decode(const Value &v, std::string *why) const
    {
        const size_t n = std::size(items);
        if (!v.isArray() || v.size() != n)
            return reject(why, " is not an array of " + std::to_string(n));
        for (size_t i = 0; i < n; ++i) {
            auto &&codec = make(items[i]);
            if (!detail::decodeElement(v.items()[i], i, codec, why))
                return false;
        }
        return true;
    }
};

/**
 * A slot table (base/slot_table.hh) written sparsely: its valid
 * slots, as {"slot": index, <members list names>} objects in
 * ascending slot order (which slots hold an entry is state, not just
 * which entries exist). list(entry, f) names an entry's members.
 * Reading invalidates every slot first, zeroes each slot it reads
 * before its members, and rejects a slot out of range or not above
 * the previous one.
 */
template <typename T, typename L>
struct ValidSlots
{
    T &table;
    L list;

    Value
    encode() const
    {
        Value out = Value::array();
        table.forEachValid([&](uint64_t i) {
            out.push(encodeObject([&](auto &f) {
                f("slot", i);
                list(table[i], f);
            }));
        });
        return out;
    }

    bool
    decode(const Value &v, std::string *why) const
    {
        if (!v.isArray())
            return reject(why, " is not an array");
        table.clear();
        size_t lowest = 0;
        for (size_t i = 0; i < v.size(); ++i) {
            const Value &item = v.items()[i];
            uint64_t slot = 0;
            bool ok = decodeObject(
                item, [&](auto &f) { f("slot", slot); }, why);
            if (ok && (slot < lowest || slot >= table.size())) {
                ok = reject(why, ".slot is out of range or not above "
                                 "the previous slot");
            }
            if (ok) {
                table[slot] = {};
                ok = decodeObject(
                    item, [&](auto &f) { list(table[slot], f); }, why);
            }
            if (!ok)
                return reject(why, "[" + std::to_string(i) + "]" + *why);
            table.setValid(slot);
            lowest = slot + 1;
        }
        return true;
    }
};

/**
 * An array of records the writer emits in ascending key order, read
 * one at a time: read(item, key, why) decodes one element, sets
 * @p key from it and applies it. Rejects, naming its index, a
 * record whose key is not above the one before it — a repeat or a
 * reordering the writer never emits.
 */
template <typename K, typename R>
bool
decodeAscending(const Value &v, R read, std::string *why)
{
    if (!v.isArray())
        return reject(why, " is not an array");
    K prev{};
    for (size_t i = 0; i < v.size(); ++i) {
        K key{};
        if (!read(v.items()[i], key, why))
            return reject(why, "[" + std::to_string(i) + "]" + *why);
        if (i > 0 && !(prev < key)) {
            return reject(why, "[" + std::to_string(i) +
                                   "] is not above the element before it");
        }
        prev = key;
    }
    return true;
}

/** decodeAscending() over [key, value] pairs: add(key, value, why)
 * applies one, or rejects it naming the problem. */
template <typename K, typename V, typename A>
bool
decodePairs(const Value &v, A add, std::string *why)
{
    return decodeAscending<K>(
        v,
        [&](const Value &item, K &key, std::string *why) {
            V value{};
            auto pair = std::tie(key, value);
            return decode(item, pair, why) && add(key, value, why);
        },
        why);
}

namespace detail
{

template <typename T>
constexpr bool IsSequence = false;
template <typename T>
constexpr bool IsSequence<std::vector<T>> = true;
template <typename T>
constexpr bool IsSequence<std::deque<T>> = true;

template <typename T>
constexpr bool IsTuple = false;
template <typename A, typename B>
constexpr bool IsTuple<std::pair<A, B>> = true;
template <typename... Ts>
constexpr bool IsTuple<std::tuple<Ts...>> = true;

} // namespace detail

/** @p field as JSON; a struct or group becomes an object. */
template <typename T>
Value
encode(const T &field)
{
    if constexpr (requires { field.encode(); }) {
        return field.encode();
    } else if constexpr (std::is_same_v<T, Value> ||
                         std::is_same_v<T, bool> ||
                         std::is_same_v<T, double> ||
                         std::is_same_v<T, std::string>) {
        return field;
    } else if constexpr (std::is_unsigned_v<T>) {
        return static_cast<uint64_t>(field);
    } else if constexpr (std::is_integral_v<T>) {
        return static_cast<int64_t>(field);
    } else if constexpr (detail::IsSequence<T>) {
        Value items = Value::array();
        for (const auto &item : field)
            items.push(encode(item));
        return items;
    } else if constexpr (detail::IsTuple<T>) {
        Value items = Value::array();
        std::apply([&](const auto &...item) { (items.push(encode(item)), ...); },
                   field);
        return items;
    } else {
        return encodeFields(field);
    }
}

/**
 * Read @p out strictly from @p v. On failure @p why holds the path
 * below @p v of the first bad member and its problem, or only the
 * problem when @p v itself is wrong (" is not an object").
 */
template <typename T>
bool
decode(const Value &v, T &out, std::string *why)
{
    if constexpr (requires { out.decode(v, why); }) {
        return out.decode(v, why);
    } else if constexpr (std::is_same_v<T, Value>) {
        out = v; // a nested document the caller checks itself
    } else if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return reject(why, " is not a boolean");
        out = v.boolean();
    } else if constexpr (std::is_unsigned_v<T>) {
        if (!v.isUint64() || v.asUint64() > std::numeric_limits<T>::max())
            return reject(why, " is not an unsigned integer in range");
        out = static_cast<T>(v.asUint64());
    } else if constexpr (std::is_integral_v<T>) {
        // min() is -2^(bits-1): exact as a double, and so is its
        // negation, one past max().
        constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
        double d = v.isNumber() ? v.number() : 0.5;
        if (std::trunc(d) != d || d < lo || d >= -lo)
            return reject(why, " is not an integer in range");
        out = v.isUint64() ? static_cast<T>(v.asUint64()) : static_cast<T>(d);
    } else if constexpr (std::is_same_v<T, double>) {
        if (!v.isNumber())
            return reject(why, " is not a number");
        out = v.number();
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString())
            return reject(why, " is not a string");
        out = v.str();
    } else if constexpr (detail::IsSequence<T>) {
        if (!v.isArray())
            return reject(why, " is not an array");
        out.resize(v.size());
        for (size_t i = 0; i < out.size(); ++i)
            if (!detail::decodeElement(v.items()[i], i, out[i], why))
                return false;
    } else if constexpr (detail::IsTuple<T>) {
        constexpr size_t n = std::tuple_size_v<T>;
        if (!v.isArray() || v.size() != n)
            return reject(why, " is not an array of " + std::to_string(n));
        size_t i = 0;
        bool ok = true;
        std::apply(
            [&](auto &...item) {
                ((ok = ok && detail::decodeElement(v.items()[i], i, item, why),
                  ++i),
                 ...);
            },
            out);
        return ok;
    } else {
        return decodeFields(v, out, why);
    }
    return true;
}

/** A decode() problem as a message: the path without its leading
 * dot, or @p what when the value itself is wrong. */
inline std::string
describe(const std::string &why, const std::string &what)
{
    return why[0] == '.' ? why.substr(1) : what + why;
}

} // namespace json
} // namespace chex

#endif // CHEX_BASE_FIELDS_HH
