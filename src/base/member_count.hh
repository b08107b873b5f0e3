/**
 * @file
 * The number of members of an aggregate, found at compile time: the
 * largest N for which `T{x1, ..., xN}` compiles, where each x
 * converts to any type. The content hashes (sim/config_hash.cc,
 * driver/spec_hash.cc) list their structs' fields by hand and
 * static_assert each struct's count beside that list, so a member
 * added to a hashed struct fails the build until it is hashed.
 *
 * Brace elision counts a member array element by element: a struct
 * with one `unsigned a[4]` member counts 4.
 */

#ifndef CHEX_BASE_MEMBER_COUNT_HH
#define CHEX_BASE_MEMBER_COUNT_HH

#include <cstddef>

namespace chex
{
namespace detail
{

/** Converts to any member type; only named in unevaluated contexts. */
struct AnyMember
{
    template <typename T>
    operator T() const;
};

template <typename T, typename... Init>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { T{Init{}..., AnyMember{}}; })
        return memberCount<T, Init..., AnyMember>();
    else
        return sizeof...(Init);
}

} // namespace detail

/** Members of aggregate @p T (array members count per element). */
template <typename T>
inline constexpr std::size_t memberCount = detail::memberCount<T>();

} // namespace chex

#endif // CHEX_BASE_MEMBER_COUNT_HH
