/**
 * @file
 * Record/replay of campaign jobs for crash triage: reconstruct the
 * exact JobSpec behind one row of a campaign report (profile,
 * variant, seed — optionally starting from the snapshot-bundle
 * entry the row originally fanned out from) and verify the
 * reconstruction against the row's recorded spec hash before
 * anything is re-run. A failed isolated job — a crash, a panic, a
 * watchdog timeout — can thus be re-executed as a single job, by
 * itself, bit-identically to its campaign run.
 *
 * The report records spec *hashes*, not specs, so reconstruction
 * needs the same inputs the original campaign had: the --scale
 * divisor and — for from-snapshot rows — the bundle. The one config
 * knob the CLI varies beyond the variant, uninitialized-read
 * detection (on for `attack` jobs unless --no-uninit), is recovered
 * from the recorded hash itself. The hash check is what makes that
 * safe: a replay whose reconstructed hash does not match the
 * recorded one is refused instead of silently simulating a
 * different point.
 */

#ifndef CHEX_DRIVER_REPLAY_HH
#define CHEX_DRIVER_REPLAY_HH

#include <cstdint>
#include <optional>
#include <string>

#include "driver/campaign.hh"
#include "snapshot/snapshot.hh"

namespace chex
{
namespace driver
{

/** A verified, replayable reconstruction of one report row. */
struct ReplayPlan
{
    size_t index = 0;   // row index into report.jobs
    JobSpec spec;       // reconstructed spec, seed pinned
    bool fromSnapshot = false; // row originally ran from a checkpoint
};

/**
 * Pick the row to replay: @p index when given (must be in range),
 * otherwise the first failed row of the report. Fails when the
 * explicit index is out of range or, with no index, when the report
 * has no failed rows.
 */
bool selectReplayRow(const CampaignReport &report,
                     std::optional<size_t> index, size_t *out,
                     std::string *err = nullptr);

/**
 * Reconstruct row @p index of @p report into a pinned-seed JobSpec
 * on the default SystemConfig and verify it hashes to the row's
 * recorded specHash, trying uninitialized-read detection off, then
 * on, and keeping the setting that matches. @p scale_divisor is the
 * original --scale, and @p bundle the snapshot bundle for rows that
 * ran from a checkpoint (nullptr otherwise). Refuses skipped rows
 * (they never ran), body-override rows (hash 0, not
 * reconstructible), unknown profiles/variants, and any hash
 * mismatch.
 */
bool planReplay(const CampaignReport &report, size_t index,
                uint64_t scale_divisor, const snapshot::Bundle *bundle,
                ReplayPlan *out, std::string *err = nullptr);

/**
 * Compare a replayed row against the recorded one: reproduced means
 * the same failed/succeeded outcome and, for failures, the same
 * structured cause. @p detail (if non-null) gets a one-line
 * human-readable verdict either way.
 */
bool outcomeReproduced(const JobResult &recorded,
                       const JobResult &replayed,
                       std::string *detail = nullptr);

} // namespace driver
} // namespace chex

#endif // CHEX_DRIVER_REPLAY_HH
