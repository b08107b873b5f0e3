#include "base64.hh"

#include <array>

namespace chex
{

namespace
{

const char kAlphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
    "0123456789+/";

/** 0-63 for alphabet characters, -1 otherwise ('=' included). */
constexpr std::array<int8_t, 256> kDecode = [] {
    std::array<int8_t, 256> table{};
    table.fill(-1);
    for (int i = 0; i < 64; ++i)
        table[static_cast<unsigned char>(kAlphabet[i])] = int8_t(i);
    return table;
}();

} // namespace

std::string
base64Encode(const void *data, size_t n)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    std::string out(((n + 2) / 3) * 4, '=');
    char *o = out.data();
    size_t i = 0;
    for (; i + 3 <= n; i += 3, o += 4) {
        uint32_t v = (uint32_t(p[i]) << 16) | (uint32_t(p[i + 1]) << 8) |
                     uint32_t(p[i + 2]);
        o[0] = kAlphabet[(v >> 18) & 63];
        o[1] = kAlphabet[(v >> 12) & 63];
        o[2] = kAlphabet[(v >> 6) & 63];
        o[3] = kAlphabet[v & 63];
    }
    // A final group of one or two bytes keeps its '=' padding.
    if (size_t rem = n - i) {
        uint32_t v = uint32_t(p[i]) << 16;
        if (rem == 2)
            v |= uint32_t(p[i + 1]) << 8;
        o[0] = kAlphabet[(v >> 18) & 63];
        o[1] = kAlphabet[(v >> 12) & 63];
        if (rem == 2)
            o[2] = kAlphabet[(v >> 6) & 63];
    }
    return out;
}

bool
base64Decode(std::string_view text, uint8_t *out, size_t n)
{
    if (text.size() % 4 != 0)
        return false;
    // Padding is only legal in the last group's final one or two
    // positions.
    size_t pad = 0;
    if (!text.empty() && text.back() == '=')
        pad = text[text.size() - 2] == '=' ? 2 : 1;
    if (text.size() / 4 * 3 - pad != n)
        return false;
    const unsigned char *t =
        reinterpret_cast<const unsigned char *>(text.data());
    size_t len = text.size() - pad;
    size_t i = 0;
    for (; i + 4 <= len; i += 4, out += 3) {
        int8_t a = kDecode[t[i]], b = kDecode[t[i + 1]],
               c = kDecode[t[i + 2]], d = kDecode[t[i + 3]];
        if ((a | b | c | d) < 0)
            return false; // a character outside the alphabet
        uint32_t v = (uint32_t(a) << 18) | (uint32_t(b) << 12) |
                     (uint32_t(c) << 6) | uint32_t(d);
        out[0] = uint8_t(v >> 16);
        out[1] = uint8_t(v >> 8);
        out[2] = uint8_t(v);
    }
    if (pad) {
        int8_t a = kDecode[t[i]], b = kDecode[t[i + 1]],
               c = pad == 1 ? kDecode[t[i + 2]] : 0;
        if ((a | b | c) < 0)
            return false;
        uint32_t v = (uint32_t(a) << 18) | (uint32_t(b) << 12) |
                     (uint32_t(c) << 6);
        out[0] = uint8_t(v >> 16);
        if (pad == 1)
            out[1] = uint8_t(v >> 8);
    }
    return true;
}

} // namespace chex
