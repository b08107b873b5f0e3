/**
 * @file
 * Canonical content hashing of campaign job specs.
 *
 * The campaign result cache keys each job by a stable 64-bit hash of
 * everything that determines its outcome: every BenchmarkProfile
 * parameter (so a --scale change, which rewrites the iteration
 * count, changes the hash), the full SystemConfig including the
 * enforcement variant, and the effective workload seed. Nothing
 * positional goes in — not the job index, not the repetition
 * ordinal, not the display label, and not the shard geometry — so
 * the same (spec, seed) point hashes identically no matter where it
 * sits in which campaign. Shard independence is what lets a merged
 * shard report (merge.hh) feed the cache of any later re-run,
 * sharded differently or not at all.
 *
 * The hash is a tagged FNV-1a over a canonical little-endian byte
 * stream (each field is emitted as "name\0" + 8 value bytes), so it
 * is stable across runs, platforms, and struct-layout changes. A
 * field added to BenchmarkProfile or SystemConfig fails the build
 * until it is hashed (the member-count static_asserts beside
 * hashProfile() and hashSystemConfig()), and
 * SpecHash.ByteStreamIsPinned pins the digests of a workload spec
 * and an attack spec.
 *
 * Jobs with a `body` override are NOT content-hashable — the
 * std::function hides arbitrary behaviour — so the driver records
 * specHash 0 for them and never satisfies them from a cache.
 * specHash() itself never returns 0.
 */

#ifndef CHEX_DRIVER_SPEC_HASH_HH
#define CHEX_DRIVER_SPEC_HASH_HH

#include <cstdint>
#include <string>

#include "driver/campaign.hh"

namespace chex
{
namespace driver
{

/**
 * Content hash of (@p spec, @p seed): profile parameters, full
 * SystemConfig, and the effective workload seed. Never returns 0
 * (0 is the "uncacheable" sentinel for body-override jobs).
 */
uint64_t specHash(const JobSpec &spec, uint64_t seed);

/**
 * Fold a snapshot's machine-state digest into a job's spec hash.
 * A job fanned out from a restored checkpoint is a different
 * simulation point than the same (spec, seed) run from scratch —
 * its warm-up prefix already happened — so its cache identity must
 * differ too, or a from-scratch cache hit would satisfy (and
 * corrupt) a snapshot campaign and vice versa. Never returns 0.
 */
uint64_t foldSnapshotHash(uint64_t spec_hash, uint64_t state_hash);

/** The hash as the 16-digit lower-case hex the report records. */
std::string specHashHex(uint64_t hash);

/**
 * Parse a report's hex specHash; malformed or empty input yields 0
 * (which never matches a computed hash).
 */
uint64_t specHashFromHex(const std::string &hex);

} // namespace driver
} // namespace chex

#endif // CHEX_DRIVER_SPEC_HASH_HH
