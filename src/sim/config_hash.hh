/**
 * @file
 * Canonical content hashing of a SystemConfig.
 *
 * hashSystemConfig() walks every outcome-determining SystemConfig
 * field into a caller-provided TaggedHasher. It is the single source
 * of truth for the config byte stream: the driver's specHash() feeds
 * it into a running hasher (so the historical spec-hash encoding is
 * byte-for-byte unchanged), and configHash() digests it standalone
 * so a snapshot can pin the exact machine configuration it was taken
 * under and reject restoration into anything else.
 *
 * A field added to SystemConfig or a struct it holds fails the build
 * until hashSystemConfig() hashes it: config_hash.cc static_asserts
 * each struct's member count (base/member_count.hh). The test
 * SpecHash.ByteStreamIsPinned pins the digest of the default config.
 */

#ifndef CHEX_SIM_CONFIG_HASH_HH
#define CHEX_SIM_CONFIG_HASH_HH

#include <cstdint>

#include "base/fnv.hh"
#include "sim/system.hh"

namespace chex
{
/** Feed every SystemConfig field of @p cfg into @p h, tagged. */
void hashSystemConfig(TaggedHasher &h, const SystemConfig &cfg);

/** Standalone digest of @p cfg. Never returns 0. */
uint64_t configHash(const SystemConfig &cfg);

} // namespace chex

#endif // CHEX_SIM_CONFIG_HASH_HH
