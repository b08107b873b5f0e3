#include "report.hh"

#include <fstream>
#include <sstream>

#include "base/fields.hh"
#include "base/logging.hh"
#include "driver/spec_hash.hh"
#include "workload/profiles.hh"

namespace chex
{
namespace driver
{

namespace
{

const char *const SchemaTag = "chex-campaign-report-v7";

// ------------------------------------------------------------------
// Members that are not a plain struct field carry their own codec
// (base/fields.hh): encode() gives the JSON value, decode() reads it
// back or names the problem in @p why.

/** JobResult's skipped/failed pair, written as one status token. */
template <typename J>
struct Status
{
    J &job;

    json::Value
    encode() const
    {
        // A skipped row is an out-of-shard placeholder: neither a
        // result nor a failure.
        return job.skipped ? "skipped" : (job.failed ? "failed" : "ok");
    }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        const std::string token = v.isString() ? v.str() : "";
        job.skipped = token == "skipped";
        job.failed = token == "failed";
        return job.skipped || job.failed || token == "ok" ||
               json::reject(why,
                            " is not a job status (ok, failed, skipped)");
    }
};

} // namespace

// ------------------------------------------------------------------
// Field lists: every report member is named here and nowhere else
// (ViolationRecord's list is shared with snapshots, in sim/system.hh).
// toJson and fromJson both walk them, with a writer or a reader as
// @p f, so the two directions cannot drift apart. Conditional
// members are listed behind the members that decide them, which the
// reader has already filled in when it reaches the condition. The
// lists live in the namespace of the struct they describe, where
// the walker finds them.

} // namespace driver

template <json::Is<RunResult> R, typename F>
void
fields(R &r, F &&f)
{
    // Outcome
    f("exited", r.exited);
    f("violationDetected", r.violationDetected);
    f("hijackedControlFlow", r.hijackedControlFlow);
    f("hitMacroCap", r.hitMacroCap);
    f("violations", r.violations);
    // Timing
    f("cycles", r.cycles);
    f("macroOps", r.macroOps);
    f("uops", r.uops);
    f("ipc", r.ipc);
    f("seconds", r.seconds);
    f("squashCyclesBranch", r.squashCyclesBranch);
    f("squashCyclesAlias", r.squashCyclesAlias);
    f("squashFraction", r.squashFraction);
    f("branchMispredicts", r.branchMispredicts);
    // Capability machinery
    f("capChecksInjected", r.capChecksInjected);
    f("zeroIdiomChecks", r.zeroIdiomChecks);
    f("injectedUops", r.injectedUops);
    f("capCacheMissRate", r.capCacheMissRate);
    f("capCacheAccesses", r.capCacheAccesses);
    // Alias machinery
    f("aliasCacheMissRate", r.aliasCacheMissRate);
    f("aliasCacheAccesses", r.aliasCacheAccesses);
    f("aliasPredAccuracy", r.aliasPredAccuracy);
    f("reloadMispredictionRate", r.reloadMispredictionRate);
    f("p0anFlushes", r.p0anFlushes);
    f("pmanForwards", r.pmanForwards);
    f("pna0ZeroIdioms", r.pna0ZeroIdioms);
    f("pointerSpills", r.pointerSpills);
    f("pointerReloads", r.pointerReloads);
    f("loads", r.loads);
    // Memory
    f("dramBytes", r.dramBytes);
    f("bandwidthMBps", r.bandwidthMBps);
    f("residentBytes", r.residentBytes);
    f("shadowBytes", r.shadowBytes);
    f("footprintBytes", r.footprintBytes);
    // Heap behaviour
    f("totalAllocations", r.totalAllocations);
    f("maxLiveAllocations", r.maxLiveAllocations);
    f("avgAllocationsInUse", r.avgAllocationsInUse);
    // Attack-job indicator (always false on workload jobs)
    f("indicatorChecked", r.indicatorChecked);
    f("indicatorFired", r.indicatorFired);
}

namespace driver
{

template <json::Is<JobResult> J, typename F>
void
fields(J &jr, F &&f)
{
    f("index", jr.index);
    f("label", jr.label);
    f("profile", jr.profileName);
    f("variant", jr.variant);
    f("seed", jr.seed);
    f("repetition", jr.repetition);
    f("specHash", json::Hex64{jr.specHash});
    f("cached", jr.cached);
    f("fromSnapshot", jr.fromSnapshot);
    f("status", Status{jr});
    f("attempts", jr.attempts);
    f("wallSeconds", jr.wallSeconds);
    f("attemptSeconds", jr.attemptSeconds);
    if (jr.profileName == attackProfile().name)
        f("attack", jr.attack);
    if (jr.skipped)
        return; // placeholder rows carry the identity only
    if (jr.failed) {
        f("error", jr.error);
        f("cause", json::Token{jr.cause, failureCauseName});
        f("exitCode", jr.exitCode);
        f("signal", jr.termSignal);
    } else {
        f("result", jr.run);
    }
}

template <json::Is<CampaignReport> C, typename F>
void
fields(C &r, F &&f)
{
    f("schema", json::Pinned{std::string(SchemaTag)});
    f("seed", r.seed);
    f("workers", r.workers);
    f("shard", json::Group{[&](auto &g) {
          g("index", r.shardIndex);
          g("count", r.shardCount);
      }});
    f("summary", json::Group{[&](auto &g) {
          g("jobsRun", r.jobsRun);
          g("jobsFailed", r.jobsFailed);
          g("jobsCached", r.jobsCached);
          g("jobsSkipped", r.jobsSkipped);
          g("jobsFromSnapshot", r.jobsFromSnapshot);
          g("wallSeconds", r.wallSeconds);
          g("serialSeconds", r.serialSeconds);
          g("speedupVsSerial", r.speedup);
          g("totalCycles", r.totalCycles);
          g("totalUops", r.totalUops);
          g("aggregateIpc", r.aggregateIpc);
      }});
    f("jobs", r.jobs);
}

namespace
{

/**
 * The public fromJson: a fresh @p out read strictly from @p v.
 * Errors read "report: jobs[3].result.cycles is missing", or
 * "report: <what> is not an object" when @p v itself is wrong.
 */
template <typename T>
bool
decodeRoot(const json::Value &v, T &out, const char *what,
           std::string *err)
{
    out = T();
    std::string why;
    if (json::decode(v, out, &why))
        return true;
    if (err)
        *err = "report: " + json::describe(why, what);
    return false;
}

} // namespace

json::Value
toJson(const ViolationRecord &v)
{
    return json::encode(v);
}

json::Value
toJson(const RunResult &r)
{
    return json::encode(r);
}

json::Value
toJson(const JobResult &jr)
{
    return json::encode(jr);
}

json::Value
toJson(const CampaignReport &report)
{
    return json::encode(report);
}

void
writeReport(const CampaignReport &report, std::ostream &os)
{
    toJson(report).write(os, 2);
    os << "\n";
}

bool
fromJson(const json::Value &v, ViolationRecord &out, std::string *err)
{
    return decodeRoot(v, out, "violation record", err);
}

bool
fromJson(const json::Value &v, RunResult &out, std::string *err)
{
    return decodeRoot(v, out, "run result", err);
}

bool
fromJson(const json::Value &v, JobResult &out, std::string *err)
{
    return decodeRoot(v, out, "job record", err);
}

bool
fromJson(const json::Value &v, CampaignReport &out, std::string *err)
{
    if (!decodeRoot(v, out, "document", err))
        return false;
    if (out.shardCount == 0 || out.shardIndex >= out.shardCount) {
        if (err)
            *err = "report: shard index/count out of range";
        return false;
    }
    return true;
}

bool
loadReportFile(const std::string &path, CampaignReport &out,
               std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = csprintf("cannot read '%s'", path.c_str());
        return false;
    }
    std::stringstream body;
    body << in.rdbuf();
    json::Value doc;
    std::string parse_err;
    if (!json::Value::parse(body.str(), doc, &parse_err) ||
        !fromJson(doc, out, &parse_err)) {
        if (err)
            *err = csprintf("'%s' is not a campaign report: %s",
                            path.c_str(), parse_err.c_str());
        return false;
    }
    return true;
}

} // namespace driver
} // namespace chex
