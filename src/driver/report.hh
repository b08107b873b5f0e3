/**
 * @file
 * Campaign-report serialization: RunResult, JobResult, and
 * CampaignReport → JSON (schema "chex-campaign-report-v7", described
 * in DESIGN.md §8) and back. Each struct's members are declared once,
 * in one field list that both directions walk with the generic field
 * walker of base/fields.hh (shared with the snapshot codec). The
 * RunResult serializer is also what single runs use to emit
 * structured stats next to System::dumpStatsJson, and the fromJson
 * direction is how fork-isolated workers stream results to the
 * campaign parent and how every report consumer (--cache, merge,
 * replay, attack --from-report, the bench harnesses) loads a file.
 */

#ifndef CHEX_DRIVER_REPORT_HH
#define CHEX_DRIVER_REPORT_HH

#include <ostream>

#include "base/json.hh"
#include "driver/campaign.hh"

namespace chex
{
namespace driver
{

/** Every RunResult field as a flat JSON object. */
json::Value toJson(const RunResult &r);

/** One violation record as {kind, pc, addr, pid}. */
json::Value toJson(const ViolationRecord &v);

/** One job outcome; includes the RunResult unless the job failed. */
json::Value toJson(const JobResult &jr);

/** The whole campaign: schema tag, summary block, per-job array. */
json::Value toJson(const CampaignReport &report);

/** Pretty-print the campaign report JSON to @p os (with newline). */
void writeReport(const CampaignReport &report, std::ostream &os);

/**
 * @{ @name JSON → struct (the parse direction)
 *
 * Rebuild the structs from parsed report documents. The reader is
 * strict: only the current schema tag is accepted, and a missing
 * member, a member of the wrong type, a uint64 that is not an exact
 * non-negative integer, or an unknown enum token (violation kind,
 * failure cause, job status) is an error. Conditional members are
 * required exactly when their condition holds: `attack` on rows of
 * the attack profile, `error`/`cause`/`exitCode`/`signal` on failed
 * rows, `result` on ok rows. Unknown members are ignored. Returns
 * false and fills @p err (if non-null) with the path of the first bad
 * member ("report: jobs[3].result.cycles is missing").
 */
bool fromJson(const json::Value &v, RunResult &out,
              std::string *err = nullptr);
bool fromJson(const json::Value &v, ViolationRecord &out,
              std::string *err = nullptr);
bool fromJson(const json::Value &v, JobResult &out,
              std::string *err = nullptr);
bool fromJson(const json::Value &v, CampaignReport &out,
              std::string *err = nullptr);
/** @} */

/**
 * Read + parse a report file in one step (the common prologue of
 * every report consumer: the CLI's --cache, merge, replay and
 * --from-report inputs). Returns false and fills @p err (if
 * non-null) when the file is unreadable or not a campaign report.
 */
bool loadReportFile(const std::string &path, CampaignReport &out,
                    std::string *err = nullptr);

} // namespace driver
} // namespace chex

#endif // CHEX_DRIVER_REPORT_HH
