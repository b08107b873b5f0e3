/**
 * @file
 * Standard (RFC 4648) base64 with padding, used by the snapshot
 * subsystem to embed bulk binary state — sparse-memory pages, the
 * bimodal predictor table, resource-calendar occupancy — in the
 * JSON checkpoint without a 4-8x textual blow-up.
 */

#ifndef CHEX_BASE_BASE64_HH
#define CHEX_BASE_BASE64_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/fields.hh"

namespace chex
{

/** Encode @p n bytes at @p data as padded base64. */
std::string base64Encode(const void *data, size_t n);

inline std::string
base64Encode(const std::vector<uint8_t> &data)
{
    return base64Encode(data.data(), data.size());
}

/**
 * Decode padded base64 into exactly @p n bytes at @p out. Returns
 * false — leaving @p out unspecified — on any malformed input (bad
 * characters, bad length, or misplaced padding) or when @p text
 * holds another number of bytes.
 */
bool base64Decode(std::string_view text, uint8_t *out, size_t n);

/**
 * A fixed-length byte buffer (a std::vector or std::array of
 * uint8_t) as a snapshot member (base/fields.hh): written as
 * base64, read back only at the buffer's current length.
 */
template <typename B>
struct Base64Bytes
{
    B &bytes;

    json::Value
    encode() const
    {
        return base64Encode(bytes.data(), bytes.size());
    }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        if (!v.isString() ||
            !base64Decode(v.str(), bytes.data(), bytes.size())) {
            return json::reject(why, " is not base64 of " +
                                         std::to_string(bytes.size()) +
                                         " bytes");
        }
        return true;
    }
};

} // namespace chex

#endif // CHEX_BASE_BASE64_HH
