/**
 * @file
 * chex-campaign: the command-line front end of the campaign driver,
 * as five subcommands sharing one flag parser (flag_parser.hh):
 *
 *   chex-campaign run      — execute a campaign (or one shard of
 *                            it) and write the JSON report
 *   chex-campaign attack   — sweep generated/suite exploit cases
 *                            across variants and distill the
 *                            security report
 *   chex-campaign merge    — recombine shard reports into the one
 *                            report an unsharded run would produce
 *   chex-campaign snapshot — warm every (profile, variant) point
 *                            and write a snapshot bundle
 *   chex-campaign replay   — re-run one (failed) report row by
 *                            itself, bit-identically
 *
 * Flags shared between subcommands are declared once, in two flag
 * groups: the sweep group (which job points: --profiles, --variants,
 * --seed, --scale) and the execution group (how they run: --jobs,
 * --retries, --isolate, --timeout, --shard, --cache, --no-cache,
 * --from-snapshot). Each subcommand registers the members it takes.
 * Flags are the tool's only input; it reads no environment knobs.
 *
 *   chex-campaign run --profiles spec --variants baseline,ucode-pred \
 *                     --jobs 8 --seed 7 --reps 3 --out report.json
 *
 * Scale-out across machines shards by job index and merges:
 *
 *   chex-campaign run ... --shard 0/2 --out shard0.json   # machine A
 *   chex-campaign run ... --shard 1/2 --out shard1.json   # machine B
 *   chex-campaign merge --out report.json shard0.json shard1.json
 *
 * Incremental re-runs pass previous reports (merged ones included)
 * as a result cache; --out may name a --cache input, which is read
 * before it is rewritten:
 *
 *   chex-campaign run ... --cache report.json --out report.json
 *
 * Checkpoint once, sweep many: warm each job point past the
 * workload's warm-up prefix, then fan campaigns out from the
 * checkpoint instead of re-simulating the prefix per job:
 *
 *   chex-campaign snapshot --profiles spec --warmup 50000 \
 *                          --out warm.chexsnap
 *   chex-campaign run ... --from-snapshot warm.chexsnap
 *
 * Crash triage re-runs a single failed row from the report (plus
 * the bundle, when the campaign fanned out of one):
 *
 *   chex-campaign replay --report report.json --isolate
 *
 * Security campaigns sweep seeded generated exploits (and/or the
 * hand-written suites) against enforcement variants, validate each
 * exploit against the insecure baseline, and emit the distilled
 * chex-security-report-v1 alongside the raw campaign report:
 *
 *   chex-campaign attack --attacks gen/mix --seeds 500 \
 *                        --variants baseline,ucode-pred \
 *                        --out attacks.json --security-out sec.json
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "attacks/generator.hh"
#include "attacks/registry.hh"
#include "base/logging.hh"
#include "driver/campaign.hh"
#include "driver/merge.hh"
#include "driver/replay.hh"
#include "driver/report.hh"
#include "driver/security_report.hh"
#include "driver/spec_hash.hh"
#include "flag_parser.hh"
#include "snapshot/codec.hh"
#include "snapshot/snapshot.hh"
#include "workload/profiles.hh"

using namespace chex;

namespace
{

/** Short CLI tokens for the six variants. */
const std::map<std::string, VariantKind> &
variantTokens()
{
    static const std::map<std::string, VariantKind> tokens = {
        {"baseline", VariantKind::Baseline},
        {"hw-only", VariantKind::HardwareOnly},
        {"bintrans", VariantKind::BinaryTranslation},
        {"ucode-always", VariantKind::MicrocodeAlwaysOn},
        {"ucode-pred", VariantKind::MicrocodePrediction},
        {"asan", VariantKind::Asan},
    };
    return tokens;
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

using Handler = std::function<bool(const std::string &)>;

/**
 * A handler for a count or size flag: a plain decimal of at least
 * @p min that fits the field @p dst sets. Anything else rejects the
 * value (a usage error) instead of clamping it.
 */
template <typename T>
Handler
count(T &dst, std::type_identity_t<T> min = 0)
{
    return [&dst, min](const std::string &v) {
        if (v.empty() ||
            v.find_first_not_of("0123456789") != std::string::npos)
            return false;
        errno = 0;
        unsigned long long n = std::strtoull(v.c_str(), nullptr, 10);
        if (errno != 0 || n < min || n > std::numeric_limits<T>::max())
            return false;
        dst = static_cast<T>(n);
        return true;
    };
}

/** A handler storing the flag's value in @p dst. */
Handler
text(std::string &dst)
{
    return [&dst](const std::string &v) {
        dst = v;
        return true;
    };
}

/** parse() as a main() exit status, or nullopt to proceed. */
std::optional<int>
parseArgs(cli::FlagParser &parser, int argc, char **argv)
{
    switch (parser.parse(argc, argv, 2)) {
      case cli::ParseStatus::Ok: return std::nullopt;
      case cli::ParseStatus::ExitOk: return 0;
      case cli::ParseStatus::ExitUsage: break;
    }
    return 2;
}

/**
 * Open (truncate) @p path for a report when it is set. Callers open
 * their outputs after loading every input, since an output may name
 * the same file as a --cache input, and before simulating, so a bad
 * path fails fast.
 */
bool
openOutput(const std::string &ctx, const std::string &path,
           std::ofstream *out)
{
    if (path.empty())
        return true;
    out->open(path);
    if (*out)
        return true;
    std::fprintf(stderr, "%s: cannot write '%s'\n", ctx.c_str(),
                 path.c_str());
    return false;
}

void
listChoices()
{
    std::printf("profiles:\n");
    for (const BenchmarkProfile &p : allProfiles())
        std::printf("  %-12s (%s)\n", p.name.c_str(),
                    p.isParsec ? "PARSEC" : "SPEC");
    for (const BenchmarkProfile &p : serverProfiles())
        std::printf("  %-12s (server)\n", p.name.c_str());
    std::printf("variants:\n");
    for (const auto &[token, kind] : variantTokens())
        std::printf("  %-12s = %s\n", token.c_str(),
                    variantName(kind));
}

/**
 * Resolve a --profiles argument ('spec'/'parsec'/'all'/'server' or
 * a comma-separated name list) into --scale-adjusted profiles.
 */
bool
resolveProfiles(const char *ctx, const std::string &arg,
                uint64_t scale, std::vector<BenchmarkProfile> *out)
{
    if (arg == "spec") {
        *out = specProfiles();
    } else if (arg == "parsec") {
        *out = parsecProfiles();
    } else if (arg == "all") {
        *out = allProfiles();
    } else if (arg == "server") {
        *out = serverProfiles();
    } else {
        for (const std::string &name : splitCommas(arg)) {
            const BenchmarkProfile *p = findProfileByName(name);
            if (!p) {
                std::fprintf(stderr,
                             "%s: unknown profile '%s' (see "
                             "--list)\n",
                             ctx, name.c_str());
                return false;
            }
            out->push_back(*p);
        }
    }
    for (BenchmarkProfile &p : *out)
        p = p.scaledBy(scale);
    return true;
}

/** Resolve a --variants argument ('all' or comma-separated CLI
 * tokens). */
bool
resolveVariants(const char *ctx, const std::string &arg,
                std::vector<VariantKind> *out)
{
    if (arg == "all") {
        for (const auto &[token, kind] : variantTokens())
            out->push_back(kind);
        return true;
    }
    for (const std::string &token : splitCommas(arg)) {
        auto it = variantTokens().find(token);
        if (it == variantTokens().end()) {
            std::fprintf(stderr,
                         "%s: unknown variant '%s' (see --list)\n",
                         ctx, token.c_str());
            return false;
        }
        out->push_back(it->second);
    }
    return true;
}

/**
 * Resolve one --attacks token into stable attack-case IDs. Accepts
 * 'suites' (every hand-written case), a suite token ('ripe', 'asan',
 * 'how2heap'), 'gen' (every generator family), 'gen/<family>', or an
 * explicit "<suite>/<case>" ID.
 */
bool
resolveAttackToken(const char *ctx, const std::string &token,
                   std::vector<std::string> *out)
{
    if (token == "suites") {
        for (const AttackSuite &suite : attackSuites())
            for (const AttackCase &c : suite.cases)
                out->push_back(attackCaseId(c));
        return true;
    }
    for (const AttackSuite &suite : attackSuites()) {
        if (token == suite.name) {
            for (const AttackCase &c : suite.cases)
                out->push_back(attackCaseId(c));
            return true;
        }
    }
    if (token == "gen") {
        for (const std::string &family : generatorFamilies())
            out->push_back("gen/" + family);
        return true;
    }
    if (isGeneratedAttackId(token) || findSuiteCase(token)) {
        out->push_back(token);
        return true;
    }
    std::fprintf(stderr,
                 "%s: unknown attack '%s' (see --list)\n", ctx,
                 token.c_str());
    return false;
}

/** Resolve a full --attacks argument, deduplicating repeats. */
bool
resolveAttacks(const char *ctx, const std::string &arg,
               std::vector<std::string> *out)
{
    for (const std::string &token : splitCommas(arg))
        if (!resolveAttackToken(ctx, token, out))
            return false;
    std::vector<std::string> unique;
    for (std::string &id : *out)
        if (std::find(unique.begin(), unique.end(), id) ==
            unique.end())
            unique.push_back(std::move(id));
    *out = std::move(unique);
    return true;
}

void
listAttackChoices()
{
    std::printf("attacks:\n");
    std::printf("  %-12s every hand-written suite case\n", "suites");
    for (const AttackSuite &suite : attackSuites())
        std::printf("  %-12s %s (%zu cases)\n", suite.name.c_str(),
                    suite.title.c_str(), suite.cases.size());
    std::printf("  %-12s every generator family\n", "gen");
    for (const std::string &family : generatorFamilies())
        std::printf("  gen/%-8s seeded generated attacks\n",
                    family.c_str());
    std::printf("  (or an explicit \"<suite>/<case>\" ID)\n");
    std::printf("variants:\n");
    for (const auto &[token, kind] : variantTokens())
        std::printf("  %-12s = %s\n", token.c_str(),
                    variantName(kind));
}

/**
 * The sweep flag group — which job points a campaign covers:
 * --profiles, --variants, --seed, --scale. Subcommands register the
 * members they take; run and snapshot build their job lists from it
 * with the same builder, so their spec hashes line up.
 */
struct SweepFlags
{
    // Registered handlers hold the address of the members they set.
    SweepFlags() = default;
    SweepFlags(const SweepFlags &) = delete;
    SweepFlags &operator=(const SweepFlags &) = delete;

    enum : unsigned
    {
        Profiles = 1,
        Variants = 2,
        Seed = 4,
        Scale = 8,
        All = 15
    };

    std::string profiles = "spec";
    std::string variants = "baseline,ucode-pred";
    uint64_t seed = 1;
    uint64_t scale = 1;

    void
    registerOn(cli::FlagParser &parser, unsigned which = All)
    {
        if (which & Profiles)
            parser.add("--profiles", "LIST",
                       "comma-separated profile names, or one of\n"
                       "'spec', 'parsec', 'all', 'server' (default: "
                       "spec)",
                       text(profiles));
        if (which & Variants)
            parser.add("--variants", "LIST",
                       "comma-separated variant tokens, or 'all'\n"
                       "(default: baseline,ucode-pred); `attack`\n"
                       "always adds 'baseline' for exploit validation",
                       text(variants));
        if (which & Seed)
            parser.add("--seed", "S", "campaign seed (default: 1)",
                       count(seed));
        if (which & Scale)
            parser.add("--scale", "K",
                       "divide workload iteration counts by K >= 1\n"
                       "(default: 1; `replay` takes the original\n"
                       "campaign's)",
                       count(scale, 1));
    }

    /**
     * The (profile x variant) x reps job list of run and snapshot. A
     * single rep pins the workload seed so every variant sees the
     * identical program; with reps the driver derives per-job seeds
     * instead.
     */
    bool
    jobs(const std::string &ctx, unsigned reps,
         std::vector<driver::JobSpec> *out) const
    {
        std::vector<BenchmarkProfile> points;
        std::vector<VariantKind> kinds;
        if (!resolveProfiles(ctx.c_str(), profiles, scale, &points) ||
            !resolveVariants(ctx.c_str(), variants, &kinds))
            return false;
        if (points.empty() || kinds.empty()) {
            std::fprintf(stderr, "%s: nothing to run\n", ctx.c_str());
            return false;
        }
        if (reps == 1) {
            *out = driver::buildMatrix(points, kinds, seed);
            return true;
        }
        for (const BenchmarkProfile &p : points) {
            for (VariantKind kind : kinds) {
                for (unsigned r = 0; r < reps; ++r) {
                    driver::JobSpec spec;
                    spec.label = csprintf("%s/%s#%u", p.name.c_str(),
                                          variantName(kind), r);
                    spec.profile = p;
                    spec.config.variant.kind = kind;
                    spec.repetition = r;
                    out->push_back(std::move(spec));
                }
            }
        }
        return true;
    }
};

/**
 * The execution flag group — how a campaign's jobs run: --jobs,
 * --retries, --isolate, --timeout, --shard, --cache, --no-cache,
 * --from-snapshot. Subcommands register the members they take, and
 * options() turns them into driver::CampaignOptions.
 */
struct ExecutionFlags
{
    // Registered handlers hold the address of the members they set.
    ExecutionFlags() = default;
    ExecutionFlags(const ExecutionFlags &) = delete;
    ExecutionFlags &operator=(const ExecutionFlags &) = delete;

    enum : unsigned
    {
        Jobs = 1,
        Retries = 2,
        Isolate = 4,
        Timeout = 8,
        Shard = 16,
        Cache = 32, // --cache and --no-cache
        FromSnapshot = 64,
        All = 127
    };

    unsigned jobs = 0;
    unsigned retries = 1;
    bool isolate = false;
    double timeout = 0.0;
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
    std::vector<std::string> cachePaths;
    bool noCache = false;
    std::string snapshotPath;

    void
    registerOn(cli::FlagParser &parser, unsigned which = All)
    {
        if (which & Jobs)
            parser.add("--jobs", "N",
                       "worker threads (default: all cores)",
                       count(jobs));
        if (which & Retries)
            parser.add("--retries", "N",
                       "attempts per job (>= 1) before it is\n"
                       "recorded as failed (default: 1)",
                       count(retries, 1));
        if (which & Isolate)
            parser.add("--isolate",
                       "run jobs in child processes, one per\n"
                       "worker, reused over a socketpair until an\n"
                       "attempt fails (then re-forked), so a\n"
                       "simulator panic/crash is recorded as a\n"
                       "failed job (cause: signal) instead of\n"
                       "killing the campaign",
                       [this]() { isolate = true; });
        if (which & Timeout)
            parser.add("--timeout", "SECS",
                       "per-attempt wall-clock watchdog; a stuck\n"
                       "child is killed and recorded as failed\n"
                       "(cause: timeout). Implies --isolate",
                       [this](const std::string &v) {
                           char *end = nullptr;
                           double t = std::strtod(v.c_str(), &end);
                           if (v.empty() || *end != '\0' || !(t >= 0.0))
                               return false;
                           timeout = t;
                           return true;
                       });
        if (which & Shard)
            parser.add("--shard", "I/N",
                       "run only shard I of N (jobs with\n"
                       "index % N == I); other jobs appear in the\n"
                       "report as 'skipped' placeholders for the\n"
                       "merge subcommand (default: 0/1)",
                       [this](const std::string &v) {
                           std::string err;
                           if (driver::parseShardSpec(v, shardIndex,
                                                      shardCount, &err))
                               return true;
                           std::fprintf(stderr, "--shard %s: %s\n",
                                        v.c_str(), err.c_str());
                           return false;
                       });
        if (which & Cache) {
            parser.add("--cache", "FILE",
                       "load a previous campaign report as a\n"
                       "result cache (repeatable). Jobs whose spec\n"
                       "hash and seed match a successful prior job\n"
                       "are not re-simulated",
                       [this](const std::string &v) {
                           cachePaths.push_back(v);
                           return true;
                       },
                       cli::Repeat::Allowed);
            parser.add("--no-cache", "ignore every --cache",
                       [this]() { noCache = true; });
        }
        if (which & FromSnapshot)
            parser.add("--from-snapshot", "FILE",
                       "fan jobs out from the warmed machine states\n"
                       "in a bundle written by `snapshot`: jobs with\n"
                       "a matching entry restore it instead of\n"
                       "re-running the warm-up prefix (`replay`\n"
                       "needs it for from-snapshot rows)",
                       text(snapshotPath));
    }

    /**
     * Fill @p opts for a campaign seeded with @p seed. --timeout
     * implies --isolate. Every --cache report and the --from-snapshot
     * bundle are loaded here, before the caller opens any output
     * (--out may name a --cache input). An input that cannot be
     * loaded is a hard error, reported under @p ctx: the user asked
     * for it, and re-simulating instead would be the costliest way
     * to honor that request.
     */
    bool
    options(const std::string &ctx, uint64_t seed,
            driver::CampaignOptions *opts) const
    {
        if (timeout > 0.0 && !isolate) {
            std::fprintf(stderr,
                         "%s: --timeout requires process isolation; "
                         "enabling --isolate\n",
                         ctx.c_str());
        }
        opts->workers = jobs;
        opts->seed = seed;
        opts->maxAttempts = retries;
        opts->isolation = isolate || timeout > 0.0;
        opts->timeoutSeconds = timeout;
        opts->shardIndex = shardIndex;
        opts->shardCount = shardCount;
        std::string err;
        for (size_t i = 0; !noCache && i < cachePaths.size(); ++i) {
            driver::CampaignReport prior;
            if (!driver::loadReportFile(cachePaths[i], prior, &err)) {
                std::fprintf(stderr, "%s: cache %s\n", ctx.c_str(),
                             err.c_str());
                return false;
            }
            opts->cacheReports.push_back(std::move(prior));
        }
        if (!snapshotPath.empty()) {
            snapshot::Bundle bundle;
            if (!snapshot::loadBundleFile(snapshotPath, &bundle, &err)) {
                std::fprintf(stderr, "%s: snapshot %s\n", ctx.c_str(),
                             err.c_str());
                return false;
            }
            opts->snapshot = std::make_shared<const snapshot::Bundle>(
                std::move(bundle));
        }
        return true;
    }

    /**
     * Announce the shard of @p specs this run covers and, unless
     * @p quiet, print one progress line per finished job: the
     * failure, or @p detail of a successful row.
     */
    void
    trackProgress(const std::vector<driver::JobSpec> &specs, bool quiet,
                  std::function<std::string(const driver::JobResult &)>
                      detail,
                  driver::CampaignOptions *opts) const
    {
        size_t in_shard = 0;
        for (size_t i = 0; i < specs.size(); ++i)
            if (i % shardCount == shardIndex)
                ++in_shard;
        if (shardCount > 1) {
            std::printf("shard %u/%u: %zu of %zu jobs in shard\n",
                        shardIndex, shardCount, in_shard, specs.size());
        }
        if (quiet)
            return;
        opts->onJobDone = [in_shard, detail, done = size_t{0}](
                              const driver::JobResult &jr) mutable {
            std::string what =
                jr.failed ? csprintf("FAILED [%s] (%s)",
                                     driver::failureCauseName(jr.cause),
                                     jr.error.c_str())
                          : detail(jr);
            std::printf("[%3zu/%zu] %-44s %s\n", ++done, in_shard,
                        jr.label.c_str(), what.c_str());
            std::fflush(stdout);
        };
    }
};

int
runMain(const char *argv0, int argc, char **argv)
{
    SweepFlags sweep;
    ExecutionFlags exec;
    unsigned reps = 1;
    std::string out_path;
    bool quiet = false;
    bool list_only = false;

    cli::FlagParser parser(
        argv0, "run",
        "Run a simulation campaign (profiles x variants x reps) on "
        "a\nworker thread pool and emit a JSON report "
        "(chex-campaign-report-v7).");
    sweep.registerOn(parser);
    parser.add("--reps", "R",
               "repetitions per point (>= 1), each with a seed\n"
               "derived from (seed, job index) (default: 1)",
               count(reps, 1));
    exec.registerOn(parser);
    parser.add("--out", "FILE", "write the JSON report to FILE",
               text(out_path));
    parser.add("--quiet", "suppress per-job progress lines",
               [&]() { quiet = true; });
    parser.add("--list", "list profiles and variant tokens, exit",
               [&]() { list_only = true; });
    if (std::optional<int> rc = parseArgs(parser, argc, argv))
        return *rc;
    if (list_only) {
        listChoices();
        return 0;
    }

    std::string ctx = std::string(argv0) + " run";
    std::vector<driver::JobSpec> specs;
    driver::CampaignOptions opts;
    if (!sweep.jobs(ctx, reps, &specs) ||
        !exec.options(ctx, sweep.seed, &opts))
        return 2;
    std::ofstream out;
    if (!openOutput(ctx, out_path, &out))
        return 1;

    exec.trackProgress(
        specs, quiet,
        [](const driver::JobResult &jr) {
            std::string when = jr.cached
                                   ? "(cached)"
                                   : csprintf("%.2fs", jr.wallSeconds);
            return csprintf("%10lu cycles  ipc %.2f  %s",
                            static_cast<unsigned long>(jr.run.cycles),
                            jr.run.ipc, when.c_str());
        },
        &opts);

    driver::CampaignReport report = driver::runCampaign(specs, opts);

    std::printf("\ncampaign: %zu jobs (%zu cached, %zu from "
                "snapshot, %zu failed, %zu out of shard) on %u "
                "workers, %.2fs wall (serial %.2fs, speedup "
                "%.2fx), aggregate ipc %.2f\n",
                report.jobsRun, report.jobsCached,
                report.jobsFromSnapshot, report.jobsFailed,
                report.jobsSkipped, report.workers,
                report.wallSeconds, report.serialSeconds,
                report.speedup, report.aggregateIpc);

    if (out.is_open()) {
        driver::writeReport(report, out);
        std::printf("report: %s\n", out_path.c_str());
    }

    return report.jobsFailed ? 1 : 0;
}

/** Print the human-readable summary of a distilled security report. */
void
printSecuritySummary(const driver::SecurityReport &sec)
{
    std::printf("\nsecurity: %zu attack jobs (%zu failed), baseline "
                "validity %zu/%zu\n",
                sec.attackJobs, sec.failedJobs, sec.baselineValid,
                sec.baselineChecked);
    for (const driver::SecurityVariantSummary &s : sec.variants) {
        std::printf("  %-16s detected %zu/%zu (%.1f%%), anchor "
                    "matches %zu\n",
                    s.variant.c_str(), s.detected, s.attacks,
                    s.attacks ? 100.0 * static_cast<double>(
                                            s.detected) /
                                    static_cast<double>(s.attacks)
                              : 0.0,
                    s.anchorMatches);
    }
    for (const driver::SecurityEscape &e : sec.escaped) {
        std::printf("  ESCAPED job %zu: %s seed %llu under %s "
                    "(expected %s%s)\n",
                    e.index, e.attack.c_str(),
                    static_cast<unsigned long long>(e.seed),
                    e.variant.c_str(), e.expected.c_str(),
                    e.baselineValid ? ", baseline-valid exploit"
                                    : "");
    }
}

/**
 * `attack --from-report`: distill the security report from an
 * existing (merged) campaign report, to @p security_out_path or
 * stdout.
 */
int
distillReport(const std::string &ctx, const std::string &report_path,
              const std::string &security_out_path, bool quiet)
{
    driver::CampaignReport prior;
    driver::SecurityReport sec;
    std::string err;
    if (!driver::loadReportFile(report_path, prior, &err) ||
        !driver::buildSecurityReport(prior, &sec, &err)) {
        std::fprintf(stderr, "%s: %s\n", ctx.c_str(), err.c_str());
        return 2;
    }
    std::ofstream sout;
    if (!openOutput(ctx, security_out_path, &sout))
        return 1;
    driver::writeSecurityReport(sec, sout.is_open() ? sout : std::cout);
    if (!quiet)
        printSecuritySummary(sec);
    return 0;
}

int
attackMain(const char *argv0, int argc, char **argv)
{
    SweepFlags sweep;
    ExecutionFlags exec;
    std::string attacks_arg = "gen/mix";
    uint64_t seeds = 64;
    std::string out_path;
    std::string security_out_path;
    std::string from_report_path;
    bool no_uninit = false;
    bool quiet = false;
    bool list_only = false;

    cli::FlagParser parser(
        argv0, "attack",
        "Run a security campaign: every attack case (seeded "
        "generated\nexploits and/or the hand-written suites) "
        "against every variant,\nwith the baseline rows doubling "
        "as exploit validity checks\n(indicator fired => the "
        "corruption really landed). Emits the\nusual campaign "
        "report (chex-campaign-report-v7) plus the "
        "distilled\nchex-security-report-v1 (per-variant detection "
        "rate, anchor-class\nbreakdown, baseline validity, escaped "
        "attacks keyed for replay).");
    parser.add("--attacks", "LIST",
               "comma-separated attack tokens: 'suites', a\n"
               "suite ('ripe', 'asan', 'how2heap'), 'gen',\n"
               "'gen/<family>', or an explicit case ID\n"
               "(default: gen/mix)",
               text(attacks_arg));
    parser.add("--seeds", "N",
               "generated-attack instances (>= 1) per\n"
               "gen/<family> token, seeded from (campaign seed,\n"
               "instance index); hand-written cases always run\n"
               "once (default: 64)",
               count(seeds, 1));
    sweep.registerOn(parser, SweepFlags::Variants | SweepFlags::Seed);
    exec.registerOn(parser, ExecutionFlags::All &
                                ~ExecutionFlags::FromSnapshot);
    parser.add("--out", "FILE",
               "write the raw campaign report to FILE",
               text(out_path));
    parser.add("--security-out", "FILE",
               "write the distilled chex-security-report-v1\n"
               "to FILE (refused for sharded runs: merge the\n"
               "shards, then use --from-report)",
               text(security_out_path));
    parser.add("--from-report", "FILE",
               "skip running: distill the security report\n"
               "from an existing (merged) campaign report;\n"
               "takes only --security-out and --quiet",
               text(from_report_path));
    parser.add("--no-uninit",
               "leave uninitialized-read detection off\n"
               "(default: on for every attack job, so the\n"
               "uninit family is detectable; inert under\n"
               "the baseline)",
               [&]() { no_uninit = true; });
    parser.add("--quiet", "suppress per-job progress lines",
               [&]() { quiet = true; });
    parser.add("--list", "list attack tokens and variants, exit",
               [&]() { list_only = true; });
    if (std::optional<int> rc = parseArgs(parser, argc, argv))
        return *rc;
    if (list_only) {
        listAttackChoices();
        return 0;
    }

    std::string ctx = std::string(argv0) + " attack";
    if (!from_report_path.empty()) {
        // Distilling runs nothing, so a campaign flag here would be
        // silently ignored: refuse it by name instead.
        for (const char *flag :
             {"--attacks", "--seeds", "--variants", "--seed", "--jobs",
              "--retries", "--isolate", "--timeout", "--shard",
              "--cache", "--no-cache", "--out", "--no-uninit"}) {
            if (parser.given(flag)) {
                std::fprintf(stderr,
                             "%s: %s does not apply to --from-report\n",
                             ctx.c_str(), flag);
                return 2;
            }
        }
        return distillReport(ctx, from_report_path, security_out_path,
                             quiet);
    }

    if (exec.shardCount > 1 && !security_out_path.empty()) {
        std::fprintf(stderr,
                     "%s: --security-out on a sharded run would "
                     "distill a slice of the campaign; merge the "
                     "shards, then `attack --from-report`\n",
                     ctx.c_str());
        return 2;
    }

    std::vector<std::string> attack_ids;
    std::vector<VariantKind> variants;
    if (!resolveAttacks(ctx.c_str(), attacks_arg, &attack_ids) ||
        !resolveVariants(ctx.c_str(), sweep.variants, &variants)) {
        return 2;
    }
    if (attack_ids.empty() || variants.empty()) {
        std::fprintf(stderr, "%s: nothing to run\n", ctx.c_str());
        return 2;
    }
    // The baseline rows are the exploit-validity ground truth; a
    // security campaign without them cannot tell a thwarted exploit
    // from a dud, so force the baseline in.
    if (std::find(variants.begin(), variants.end(),
                  VariantKind::Baseline) == variants.end()) {
        variants.insert(variants.begin(), VariantKind::Baseline);
        if (!quiet) {
            std::printf("note: including baseline for exploit "
                        "validation\n");
        }
    }

    // One instance = one (attack ID, derived seed) pair, pinned
    // across every variant so baseline validity and enforcement
    // rows describe the identical synthesized program.
    std::vector<driver::JobSpec> specs;
    size_t instance = 0;
    for (const std::string &id : attack_ids) {
        uint64_t instances = isGeneratedAttackId(id) ? seeds : 1;
        for (uint64_t i = 0; i < instances; ++i, ++instance) {
            uint64_t instance_seed =
                driver::jobSeed(sweep.seed, instance);
            for (VariantKind kind : variants) {
                driver::JobSpec spec;
                spec.label = id +
                             csprintf("#%llu/",
                                      static_cast<unsigned long long>(
                                          i)) +
                             variantName(kind);
                spec.attack = id;
                spec.profile = attackProfile();
                spec.config.variant.kind = kind;
                spec.config.detectUninitializedReads = !no_uninit;
                spec.workloadSeed = instance_seed;
                specs.push_back(std::move(spec));
            }
        }
    }

    driver::CampaignOptions opts;
    if (!exec.options(ctx, sweep.seed, &opts))
        return 2;
    std::ofstream out, security_out;
    if (!openOutput(ctx, out_path, &out) ||
        !openOutput(ctx, security_out_path, &security_out)) {
        return 1;
    }

    exec.trackProgress(
        specs, quiet,
        [](const driver::JobResult &jr) {
            const char *verdict =
                jr.run.violationDetected
                    ? "DETECTED"
                    : (jr.run.indicatorChecked
                           ? (jr.run.indicatorFired ? "exploit landed"
                                                    : "exploit dud")
                           : "escaped");
            return std::string(verdict) +
                   (jr.cached ? "  (cached)" : "");
        },
        &opts);

    driver::CampaignReport report = driver::runCampaign(specs, opts);

    std::printf("\nattack campaign: %zu jobs (%zu cached, %zu "
                "failed, %zu out of shard) on %u workers, %.2fs "
                "wall\n",
                report.jobsRun, report.jobsCached,
                report.jobsFailed, report.jobsSkipped,
                report.workers, report.wallSeconds);

    if (out.is_open()) {
        driver::writeReport(report, out);
        std::printf("report: %s\n", out_path.c_str());
    }

    // Distill unless this run is one shard of a larger campaign (a
    // slice's rates would misrepresent it — the builder refuses).
    if (report.shardCount == 1) {
        driver::SecurityReport sec;
        std::string err;
        if (!driver::buildSecurityReport(report, &sec, &err)) {
            std::fprintf(stderr, "%s: %s\n", ctx.c_str(),
                         err.c_str());
            return 1;
        }
        if (security_out.is_open()) {
            driver::writeSecurityReport(sec, security_out);
            std::printf("security report: %s\n",
                        security_out_path.c_str());
        }
        printSecuritySummary(sec);
    }

    return report.jobsFailed ? 1 : 0;
}

int
snapshotMain(const char *argv0, int argc, char **argv)
{
    SweepFlags sweep;
    uint64_t warmup = 2000;
    std::string out_path;
    bool quiet = false;
    bool list_only = false;

    cli::FlagParser parser(
        argv0, "snapshot",
        "Warm every (profile x variant) job point to --warmup "
        "macro-ops\nand write the paused machine states as a "
        "snapshot bundle\n(chex-snapshot-bundle-v1). `run "
        "--from-snapshot` then fans its\njobs out from the bundle "
        "instead of re-simulating each job's\nwarm-up prefix. The "
        "bundle matches only campaigns with the\nidentical "
        "profiles/variants/seed/scale (single-rep), because\nentries "
        "are keyed by the driver's canonical spec hash.");
    sweep.registerOn(parser);
    parser.add("--warmup", "N",
               "macro-ops (>= 1) to execute before\n"
               "checkpointing each machine (default: 2000)",
               count(warmup, 1));
    parser.add("--out", "FILE",
               "write the snapshot bundle to FILE (required)",
               text(out_path));
    parser.add("--quiet", "suppress per-machine progress lines",
               [&]() { quiet = true; });
    parser.add("--list", "list profiles and variant tokens, exit",
               [&]() { list_only = true; });
    if (std::optional<int> rc = parseArgs(parser, argc, argv))
        return *rc;
    if (list_only) {
        listChoices();
        return 0;
    }

    std::string ctx = std::string(argv0) + " snapshot";
    if (out_path.empty()) {
        std::fprintf(stderr, "%s: --out is required\n", ctx.c_str());
        return 2;
    }
    // Exactly the single-rep job list `run` builds: the per-entry
    // specKey must equal the spec hash the driver computes for the
    // matching job, or the fan-out finds nothing.
    std::vector<driver::JobSpec> specs;
    if (!sweep.jobs(ctx, 1, &specs))
        return 2;

    snapshot::Bundle bundle;
    bundle.campaignSeed = sweep.seed;
    bundle.warmupMacros = warmup;
    bundle.entries.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        const driver::JobSpec &spec = specs[i];
        snapshot::MachineEntry entry;
        std::string err;
        if (!snapshot::buildEntry(spec.profile, spec.config, sweep.seed,
                                  warmup,
                                  driver::specHash(spec, sweep.seed),
                                  &entry, &err)) {
            std::fprintf(stderr, "%s: %s: %s\n", ctx.c_str(),
                         spec.label.c_str(), err.c_str());
            return 1;
        }
        if (!quiet) {
            std::printf("[%3zu/%zu] %-40s warmed %llu macro-ops  "
                        "state %s\n",
                        i + 1, specs.size(), spec.label.c_str(),
                        static_cast<unsigned long long>(
                            entry.warmupMacros),
                        snapshot::stateHashHex(entry.stateHash)
                            .c_str());
            std::fflush(stdout);
        }
        bundle.entries.push_back(std::move(entry));
    }

    std::string err;
    if (!snapshot::writeBundleFile(out_path, bundle, &err)) {
        std::fprintf(stderr, "%s: %s\n", ctx.c_str(), err.c_str());
        return 1;
    }
    std::printf("bundle: %s (%zu machine states, warm-up %llu "
                "macro-ops, seed %llu)\n",
                out_path.c_str(), bundle.entries.size(),
                static_cast<unsigned long long>(warmup),
                static_cast<unsigned long long>(sweep.seed));
    return 0;
}

int
replayMain(const char *argv0, int argc, char **argv)
{
    SweepFlags sweep;
    ExecutionFlags exec;
    std::string report_path;
    size_t index = 0;
    bool quiet = false;

    cli::FlagParser parser(
        argv0, "replay",
        "Re-run one row of a campaign report as a single job, "
        "pinned to\nthe recorded profile/variant/seed (and, for "
        "from-snapshot rows,\nthe recorded checkpoint). The "
        "reconstructed spec must hash to\nexactly what the report "
        "recorded, so a replay of a different\nsimulation point is "
        "refused rather than run. Exits 0 when the\nreplayed "
        "outcome matches the recorded one (same failure cause\nor "
        "same success), 1 when it differs.");
    parser.add("--report", "FILE",
               "the campaign report to replay from (required)",
               text(report_path));
    parser.add("--index", "N",
               "report row to replay (default: the first\n"
               "failed row)",
               count(index));
    sweep.registerOn(parser, SweepFlags::Scale);
    exec.registerOn(parser, ExecutionFlags::Isolate |
                                ExecutionFlags::Timeout |
                                ExecutionFlags::FromSnapshot);
    parser.add("--quiet", "suppress the replay progress line",
               [&]() { quiet = true; });
    if (std::optional<int> rc = parseArgs(parser, argc, argv))
        return *rc;

    std::string ctx = std::string(argv0) + " replay";
    if (report_path.empty()) {
        std::fprintf(stderr, "%s: --report is required\n",
                     ctx.c_str());
        return 2;
    }

    driver::CampaignReport report;
    std::string err;
    if (!driver::loadReportFile(report_path, report, &err)) {
        std::fprintf(stderr, "%s: %s\n", ctx.c_str(), err.c_str());
        return 2;
    }
    driver::CampaignOptions opts;
    if (!exec.options(ctx, report.seed, &opts))
        return 2;
    opts.workers = 1;

    size_t row = 0;
    driver::ReplayPlan plan;
    if (!driver::selectReplayRow(report,
                                 parser.given("--index")
                                     ? std::optional<size_t>(index)
                                     : std::nullopt,
                                 &row, &err) ||
        !driver::planReplay(report, row, sweep.scale,
                            opts.snapshot.get(), &plan, &err)) {
        std::fprintf(stderr, "%s: %s\n", ctx.c_str(), err.c_str());
        return 2;
    }
    const driver::JobResult &recorded = report.jobs[plan.index];

    if (!quiet) {
        std::printf("replaying job %zu: %-40s seed %llu  spec %s%s\n",
                    plan.index, recorded.label.c_str(),
                    static_cast<unsigned long long>(recorded.seed),
                    driver::specHashHex(recorded.specHash).c_str(),
                    plan.fromSnapshot ? "  (from snapshot)" : "");
        std::fflush(stdout);
    }

    driver::CampaignReport rerun =
        driver::runCampaign({plan.spec}, opts);
    if (rerun.jobs.size() != 1) {
        std::fprintf(stderr, "%s: replay produced %zu jobs\n",
                     ctx.c_str(), rerun.jobs.size());
        return 2;
    }
    const driver::JobResult &replayed = rerun.jobs[0];

    std::string detail;
    bool same = driver::outcomeReproduced(recorded, replayed,
                                          &detail);
    std::printf("replay: %s\n", detail.c_str());
    if (!replayed.failed) {
        std::printf("replay: %lu cycles, ipc %.2f, %.2fs\n",
                    static_cast<unsigned long>(replayed.run.cycles),
                    replayed.run.ipc, replayed.wallSeconds);
    }
    return same ? 0 : 1;
}

int
mergeMain(const char *argv0, int argc, char **argv)
{
    std::string out_path;
    bool quiet = false;

    cli::FlagParser parser(
        argv0, "merge",
        "Merge the per-shard reports of one sharded campaign into "
        "the\ncomplete report an unsharded run would have produced."
        "\nThe shards must agree on campaign seed and options, and "
        "must\ncover every job index exactly once.");
    parser.positionals("SHARD-REPORT...",
                       "shard report files written by `run --shard` "
                       "(any order)");
    parser.add("--out", "FILE",
               "write the merged JSON report to FILE\n"
               "(default: stdout)",
               text(out_path));
    parser.add("--quiet", "suppress the merge summary line",
               [&]() { quiet = true; });
    if (std::optional<int> rc = parseArgs(parser, argc, argv))
        return *rc;

    std::string ctx = std::string(argv0) + " merge";
    const std::vector<std::string> &paths = parser.positionalArgs();
    if (paths.empty()) {
        std::fprintf(stderr, "%s: no shard reports given\n",
                     ctx.c_str());
        parser.usage(stderr);
        return 2;
    }

    std::vector<driver::CampaignReport> shards;
    shards.reserve(paths.size());
    std::string err;
    for (const std::string &path : paths) {
        driver::CampaignReport shard;
        if (!driver::loadReportFile(path, shard, &err)) {
            std::fprintf(stderr, "%s: %s\n", ctx.c_str(), err.c_str());
            return 2;
        }
        shards.push_back(std::move(shard));
    }

    driver::CampaignReport merged;
    if (!driver::mergeReports(shards, merged, &err)) {
        std::fprintf(stderr, "%s: %s\n", ctx.c_str(), err.c_str());
        return 2;
    }

    std::ofstream out;
    if (!openOutput(ctx, out_path, &out))
        return 1;
    driver::writeReport(merged, out.is_open() ? out : std::cout);

    if (!quiet) {
        // When the JSON itself goes to stdout, keep it parseable and
        // put the human summary on stderr.
        FILE *info = out_path.empty() ? stderr : stdout;
        std::fprintf(info,
                     "merged %zu shard reports: %zu jobs (%zu "
                     "cached, %zu failed), %.2fs wall (serial "
                     "%.2fs), aggregate ipc %.2f\n",
                     shards.size(), merged.jobsRun,
                     merged.jobsCached, merged.jobsFailed,
                     merged.wallSeconds, merged.serialSeconds,
                     merged.aggregateIpc);
        if (!out_path.empty())
            std::fprintf(info, "report: %s\n", out_path.c_str());
    }

    return merged.jobsFailed ? 1 : 0;
}

void
globalUsage(const char *argv0, FILE *out)
{
    std::fprintf(
        out,
        "usage: %s <command> [options]\n"
        "\n"
        "commands:\n"
        "  run       run a simulation campaign\n"
        "  attack    sweep seeded generated exploits (and the\n"
        "            hand-written suites) across variants and emit\n"
        "            the distilled security report\n"
        "  merge     merge shard reports from `run --shard I/N`\n"
        "  snapshot  warm every job point and write a snapshot\n"
        "            bundle for `run --from-snapshot`\n"
        "  replay    re-run one (failed) report row by itself,\n"
        "            bit-identically to its campaign run\n"
        "\n"
        "run '%s <command> --help' for per-command options\n",
        argv0, argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using Command = int (*)(const char *, int, char **);
    static const std::map<std::string, Command> commands = {
        {"run", runMain},           {"attack", attackMain},
        {"merge", mergeMain},       {"snapshot", snapshotMain},
        {"replay", replayMain},
    };
    std::string first = argc > 1 ? argv[1] : "";
    if (auto it = commands.find(first); it != commands.end())
        return it->second(argv[0], argc, argv);
    if (first == "help" || first == "--help" || first == "-h") {
        globalUsage(argv[0], stdout);
        return 0;
    }
    if (argc > 1) {
        std::fprintf(stderr, "%s: unknown command '%s'\n", argv[0],
                     first.c_str());
    }
    globalUsage(argv[0], stderr);
    return 2;
}
