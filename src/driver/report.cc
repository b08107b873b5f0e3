#include "report.hh"

#include <climits>
#include <cmath>
#include <concepts>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "base/logging.hh"
#include "cap/capability.hh"
#include "driver/spec_hash.hh"
#include "workload/profiles.hh"

namespace chex
{
namespace driver
{

namespace
{

const char *const SchemaTag = "chex-campaign-report-v7";

/** Sets @p why to @p problem; returns false. */
bool
fail(std::string *why, const char *problem)
{
    *why = problem;
    return false;
}

// ------------------------------------------------------------------
// Members that are not a plain struct field carry their own codec:
// encode() gives the JSON value, decode() reads it back or names the
// problem in @p why (appended to the member's path).

/** The schema tag: written as a constant, checked on read. */
struct Schema
{
    json::Value encode() const { return SchemaTag; }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        if (v.isString() && v.str() == SchemaTag)
            return true;
        *why = csprintf(" is not \"%s\"", SchemaTag);
        return false;
    }
};

/** A spec hash, written as its 16 lowercase hex digits. */
template <typename U>
struct HexHash
{
    U &value;

    json::Value encode() const { return specHashHex(value); }

    bool
    decode(const json::Value &v, std::string *why) const
    {
        if (!v.isString() ||
            specHashHex(specHashFromHex(v.str())) != v.str())
            return fail(why, " is not 16 lowercase hex digits");
        value = specHashFromHex(v.str());
        return true;
    }
};

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
               fail(why, " is not a job status (ok, failed, skipped)");
    }
};

/** A nested object whose members are the field list @p list. */
template <typename List>
struct Group
{
    List list;
};

// ------------------------------------------------------------------
// Field lists: every report member is named here and nowhere else.
// toJson and fromJson both walk them, with a writer or a reader as
// @p f, so the two directions cannot drift apart. Conditional
// members are listed behind the members that decide them, which the
// reader has already filled in when it reaches the condition.

template <typename S, typename T>
concept Is = std::same_as<std::remove_const_t<S>, T>;

template <Is<ViolationRecord> V, typename F>
void
fields(V &v, F &&f)
{
    f("kind", v.kind);
    f("pc", v.pc);
    f("addr", v.addr);
    f("pid", v.pid);
}

template <Is<RunResult> R, typename F>
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

template <Is<JobResult> J, typename F>
void
fields(J &jr, F &&f)
{
    f("index", jr.index);
    f("label", jr.label);
    f("profile", jr.profileName);
    f("variant", jr.variant);
    f("seed", jr.seed);
    f("repetition", jr.repetition);
    f("specHash", HexHash{jr.specHash});
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
        f("cause", jr.cause);
        f("exitCode", jr.exitCode);
        f("signal", jr.termSignal);
    } else {
        f("result", jr.run);
    }
}

template <Is<CampaignReport> C, typename F>
void
fields(C &r, F &&f)
{
    f("schema", Schema{});
    f("seed", r.seed);
    f("workers", r.workers);
    f("shard", Group{[&](auto &g) {
          g("index", r.shardIndex);
          g("count", r.shardCount);
      }});
    f("summary", Group{[&](auto &g) {
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

template <typename L, typename F>
void
fields(const Group<L> &g, F &&f)
{
    g.list(f);
}

/**
 * The enum value whose name() is @p v's string. Tokens are the
 * names of E(0), E(1), ... up to the first value name() does not
 * know ("???"), so a new enumerator is readable once it is named.
 */
template <typename E>
bool
decodeToken(const json::Value &v, E &out, const char *(*name)(E))
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

template <typename T>
constexpr bool IsVector = false;
template <typename T>
constexpr bool IsVector<std::vector<T>> = true;

/** @p field as JSON; a struct or group becomes an object. */
template <typename T>
json::Value
encode(const T &field)
{
    if constexpr (requires { field.encode(); }) {
        return field.encode();
    } else if constexpr (std::is_same_v<T, bool> ||
                         std::is_same_v<T, int> ||
                         std::is_same_v<T, double> ||
                         std::is_same_v<T, std::string>) {
        return field;
    } else if constexpr (std::is_unsigned_v<T>) {
        return static_cast<uint64_t>(field);
    } else if constexpr (std::is_same_v<T, Violation>) {
        return violationName(field);
    } else if constexpr (std::is_same_v<T, FailureCause>) {
        return failureCauseName(field);
    } else if constexpr (IsVector<T>) {
        json::Value items = json::Value::array();
        for (const auto &item : field)
            items.push(encode(item));
        return items;
    } else {
        json::Value obj = json::Value::object();
        fields(field, [&](const char *name, const auto &member) {
            obj.set(name, encode(member));
        });
        return obj;
    }
}

/**
 * Read @p out strictly from @p v. On failure @p why holds the path
 * below @p v of the first bad member and its problem
 * (".result.cycles is missing"), or only the problem when @p v
 * itself is wrong (" is not an object").
 */
template <typename T>
bool
decode(const json::Value &v, T &out, std::string *why)
{
    if constexpr (requires { out.decode(v, why); }) {
        return out.decode(v, why);
    } else if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return fail(why, " is not a boolean");
        out = v.boolean();
    } else if constexpr (std::is_unsigned_v<T>) {
        if (!v.isUint64() || v.asUint64() > std::numeric_limits<T>::max())
            return fail(why, " is not an unsigned integer in range");
        out = static_cast<T>(v.asUint64());
    } else if constexpr (std::is_same_v<T, int>) {
        double d = v.isNumber() ? v.number() : 0.5;
        if (std::trunc(d) != d || d < INT_MIN || d > INT_MAX)
            return fail(why, " is not an int");
        out = static_cast<int>(d);
    } else if constexpr (std::is_same_v<T, double>) {
        if (!v.isNumber())
            return fail(why, " is not a number");
        out = v.number();
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString())
            return fail(why, " is not a string");
        out = v.str();
    } else if constexpr (std::is_same_v<T, Violation>) {
        if (!decodeToken(v, out, violationName))
            return fail(why, " is not a violation kind");
    } else if constexpr (std::is_same_v<T, FailureCause>) {
        if (!decodeToken(v, out, failureCauseName))
            return fail(why, " is not a failure cause");
    } else if constexpr (IsVector<T>) {
        if (!v.isArray())
            return fail(why, " is not an array");
        out.resize(v.size());
        for (size_t i = 0; i < out.size(); ++i) {
            if (!decode(v.at(i), out[i], why)) {
                *why = csprintf("[%zu]", i) + *why;
                return false;
            }
        }
    } else {
        if (!v.isObject())
            return fail(why, " is not an object");
        // Every member is required, and the first bad one stops the
        // walk. Members normally arrive in field-list order, so the
        // next one is tried before searching.
        const auto &members = v.members();
        size_t next = 0;
        bool ok = true;
        fields(out, [&](const char *name, auto &&member) {
            if (!ok)
                return;
            const json::Value *m =
                next < members.size() && members[next].first == name
                    ? &members[next++].second
                    : v.find(name);
            if (m && decode(*m, member, why))
                return;
            *why = std::string(".") + name + (m ? *why : " is missing");
            ok = false;
        });
        return ok;
    }
    return true;
}

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
    if (decode(v, out, &why))
        return true;
    if (err) {
        *err = "report: " +
               (why[0] == '.' ? why.substr(1) : what + why);
    }
    return false;
}

} // namespace

json::Value
toJson(const ViolationRecord &v)
{
    return encode(v);
}

json::Value
toJson(const RunResult &r)
{
    return encode(r);
}

json::Value
toJson(const JobResult &jr)
{
    return encode(jr);
}

json::Value
toJson(const CampaignReport &report)
{
    return encode(report);
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
