/**
 * @file
 * Tagged FNV-1a 64 over a canonical byte stream, shared by every
 * content hash in the tree: the campaign spec hash (driver), the
 * standalone SystemConfig hash and the Program hash that pin a
 * snapshot to its machine (sim/isa), and the snapshot bundle's
 * per-entry state digest.
 *
 * Every field goes in as its tag (including the terminating NUL, so
 * "ab"+"c" cannot collide with "a"+"bc") followed by the value as 8
 * little-endian bytes; doubles contribute their IEEE-754 bit
 * pattern. The encoding is therefore independent of host endianness
 * and struct layout. This class started life as the driver's
 * SpecHasher; the byte stream is unchanged, so spec hashes recorded
 * by old campaign reports stay valid cache keys.
 *
 * Fixed bytes are folded ahead of time instead of walked. Feeding a
 * fixed string of n bytes to state h yields
 *
 *     (h - low8(h)) * P^n + tail[low8(h)]
 *
 * where tail[x] is the string fed to state x: XOR with a byte
 * touches only the low 8 bits, and multiplying by P keeps a zero low
 * byte zero, so the high part of h only picks up P^n. A tag literal
 * ("name"_tag) is folded at compile time, and so are the runs of
 * zero bytes that pad a small value to 8 bytes; only variable-length
 * bytes (strings, blobs) and a value's significant bytes are fed one
 * at a time.
 */

#ifndef CHEX_BASE_FNV_HH
#define CHEX_BASE_FNV_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace chex
{

inline constexpr uint64_t FnvBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t FnvPrime = 0x100000001b3ull;

/** A fixed byte string, folded: see the file comment. */
struct FoldedBytes
{
    uint64_t power;          // P^n
    uint64_t tail[256];      // the string fed to state x, x < 256
};

/** Fold the @p n bytes at @p s. */
constexpr FoldedBytes
foldBytes(const unsigned char *s, size_t n)
{
    FoldedBytes f{1, {}};
    for (size_t i = 0; i < n; ++i)
        f.power *= FnvPrime;
    for (uint64_t x = 0; x < 256; ++x) {
        uint64_t h = x;
        for (size_t i = 0; i < n; ++i)
            h = (h ^ s[i]) * FnvPrime;
        f.tail[x] = h;
    }
    return f;
}

/** State @p h after feeding it the folded string @p f. */
constexpr uint64_t
applyFold(uint64_t h, const FoldedBytes &f)
{
    return (h & ~0xffull) * f.power + f.tail[h & 0xff];
}

/** A string literal as a template argument, NUL included. */
template <size_t N>
struct TagLiteral
{
    unsigned char bytes[N];

    consteval TagLiteral(const char (&s)[N])
    {
        for (size_t i = 0; i < N; ++i)
            bytes[i] = static_cast<unsigned char>(s[i]);
    }
};

template <TagLiteral S>
inline constexpr FoldedBytes foldedTag =
    foldBytes(S.bytes, sizeof(S.bytes));

/** "name"_tag: the tag of a hashed field, folded at compile time. */
template <TagLiteral S>
consteval const FoldedBytes &
operator""_tag()
{
    return foldedTag<S>;
}

class TaggedHasher
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const unsigned char *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i)
            byte(p[i]);
    }

    void
    u64(const FoldedBytes &tag, uint64_t v)
    {
        _hash = applyFold(_hash, tag);
        // The significant bytes one at a time, then the zero high
        // bytes as one fold.
        auto n = static_cast<unsigned>((std::bit_width(v) + 7) / 8);
        for (unsigned i = 0; i < n; ++i)
            byte(static_cast<unsigned char>(v >> (8 * i)));
        _hash = applyFold(_hash, ZeroRuns[8 - n]);
    }

    void
    f64(const FoldedBytes &tag, double v)
    {
        u64(tag, std::bit_cast<uint64_t>(v));
    }

    void
    str(const FoldedBytes &tag, const std::string &s)
    {
        _hash = applyFold(_hash, tag);
        u64("len"_tag, s.size());
        bytes(s.data(), s.size());
    }

    /** Never 0 — every consumer reserves 0 as an "unset" sentinel. */
    uint64_t
    digest() const
    {
        return _hash ? _hash : 1;
    }

  private:
    /** ZeroRuns[k] folds k zero bytes. */
    static constexpr std::array<FoldedBytes, 9> ZeroRuns = [] {
        constexpr unsigned char zeros[8] = {};
        std::array<FoldedBytes, 9> runs{};
        for (size_t k = 0; k < runs.size(); ++k)
            runs[k] = foldBytes(zeros, k);
        return runs;
    }();

    void
    byte(unsigned char b)
    {
        _hash = (_hash ^ b) * FnvPrime;
    }

    uint64_t _hash = FnvBasis;
};

} // namespace chex

#endif // CHEX_BASE_FNV_HH
