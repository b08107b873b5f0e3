/**
 * @file
 * chex-campaign: the command-line front end of the campaign driver,
 * as two subcommands sharing one flag parser (flag_parser.hh):
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
 * A bare invocation (flags with no subcommand) keeps meaning `run`,
 * so every pre-subcommand command line still works.
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
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/generator.hh"
#include "attacks/registry.hh"
#include "base/logging.hh"
#include "driver/campaign.hh"
#include "driver/env.hh"
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

/** Strict positive/non-negative integer parses for flag handlers. */
bool
parseUint(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.find('-') != std::string::npos)
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0')
        return false;
    out = v;
    return true;
}

/**
 * Load every --cache report into @p opts (none with --no-cache). An
 * unreadable or malformed cache is a hard error: the user asked for
 * it, and re-simulating everything would be the costliest way to
 * honor that request.
 */
bool
loadCaches(const std::string &ctx, const std::vector<std::string> &paths,
           bool no_cache, driver::CampaignOptions *opts)
{
    if (no_cache)
        return true;
    for (const std::string &path : paths) {
        driver::CampaignReport prior;
        std::string err;
        if (!driver::loadReportFile(path, prior, &err)) {
            std::fprintf(stderr, "%s: cache %s\n", ctx.c_str(),
                         err.c_str());
            return false;
        }
        opts->cacheReports.push_back(std::move(prior));
    }
    return true;
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
 * Shared by run and snapshot so both subcommands see the identical
 * job points — a prerequisite for their spec hashes to line up.
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
 * tokens); shared by run and snapshot like resolveProfiles. */
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
 * The (profile x variant) x reps job list both run and snapshot
 * enumerate. A single rep pins the workload seed so every variant
 * sees the identical program; with reps the driver derives per-job
 * seeds instead.
 */
std::vector<driver::JobSpec>
buildSpecs(const std::vector<BenchmarkProfile> &profiles,
           const std::vector<VariantKind> &variants, uint64_t reps,
           uint64_t seed)
{
    std::vector<driver::JobSpec> specs;
    for (const BenchmarkProfile &p : profiles) {
        for (VariantKind kind : variants) {
            for (uint64_t r = 0; r < reps; ++r) {
                driver::JobSpec spec;
                spec.label = p.name + std::string("/") +
                             variantName(kind);
                if (reps > 1)
                    spec.label += csprintf("#%llu",
                                           static_cast<unsigned long
                                                       long>(r));
                spec.profile = p;
                spec.config.variant.kind = kind;
                spec.repetition = static_cast<unsigned>(r);
                if (reps == 1)
                    spec.workloadSeed = seed;
                specs.push_back(std::move(spec));
            }
        }
    }
    return specs;
}

int
runMain(const char *argv0, int argc, char **argv, int begin,
        bool bare)
{
    // The bench harness env knobs double as CLI defaults.
    driver::EnvOptions env = driver::optionsFromEnv();

    std::string profiles_arg = "spec";
    std::string variants_arg = "baseline,ucode-pred";
    std::string out_path;
    uint64_t jobs = env.jobs;
    uint64_t seed = 1;
    uint64_t reps = 1;
    uint64_t scale = env.scale;
    uint64_t retries = 1;
    bool isolate = env.isolate;
    double timeout = env.timeoutSeconds;
    unsigned shard_index = env.shardIndex;
    unsigned shard_count = env.shardCount;
    bool quiet = false;
    std::vector<std::string> cache_paths = env.cachePaths;
    bool no_cache = false;
    std::string snapshot_path = env.snapshotPath;
    bool list_only = false;

    cli::FlagParser parser(
        argv0, bare ? "" : "run",
        "Run a simulation campaign (profiles x variants x reps) on "
        "a\nworker thread pool and emit a JSON report "
        "(chex-campaign-report-v7).");
    parser.add("--profiles", "LIST",
               "comma-separated profile names, or one of\n"
               "'spec', 'parsec', 'all', 'server' (default: spec)",
               [&](const std::string &v) {
                   profiles_arg = v;
                   return true;
               });
    parser.add("--variants", "LIST",
               "comma-separated variant tokens, or 'all'\n"
               "(default: baseline,ucode-pred)",
               [&](const std::string &v) {
                   variants_arg = v;
                   return true;
               });
    parser.add("--jobs", "N",
               "worker threads (default: $CHEX_BENCH_JOBS or all "
               "cores)",
               [&](const std::string &v) {
                   return parseUint(v, jobs);
               });
    parser.add("--seed", "S", "campaign seed (default: 1)",
               [&](const std::string &v) {
                   return parseUint(v, seed);
               });
    parser.add("--reps", "R",
               "repetitions per point, each with a seed\n"
               "derived from (seed, job index) (default: 1)",
               [&](const std::string &v) {
                   return parseUint(v, reps);
               });
    parser.add("--scale", "K",
               "divide workload iteration counts by K\n"
               "(default: $CHEX_BENCH_SCALE or 1)",
               [&](const std::string &v) {
                   return parseUint(v, scale);
               });
    parser.add("--retries", "N",
               "attempts per job before it is recorded\n"
               "as failed (default: 1)",
               [&](const std::string &v) {
                   return parseUint(v, retries);
               });
    parser.add("--isolate",
               "fork each job into its own child process\n"
               "so a simulator panic/crash is recorded as\n"
               "a failed job (cause: signal) instead of\n"
               "killing the campaign",
               [&]() { isolate = true; });
    parser.add("--timeout", "SECS",
               "per-attempt wall-clock watchdog; a stuck\n"
               "child is killed and recorded as failed\n"
               "(cause: timeout). Implies --isolate",
               [&](const std::string &v) {
                   char *end = nullptr;
                   double t = std::strtod(v.c_str(), &end);
                   if (!end || *end != '\0' || !(t >= 0.0))
                       return false;
                   timeout = t;
                   return true;
               });
    parser.add("--shard", "I/N",
               "run only shard I of N (jobs with\n"
               "index % N == I); other jobs appear in the\n"
               "report as 'skipped' placeholders for the\n"
               "merge subcommand (default: $CHEX_BENCH_SHARD\n"
               "or 0/1)",
               [&](const std::string &v) {
                   std::string err;
                   if (!driver::parseShardSpec(v, shard_index,
                                               shard_count, &err)) {
                       std::fprintf(stderr, "%s: --shard %s: %s\n",
                                    argv0, v.c_str(), err.c_str());
                       return false;
                   }
                   return true;
               });
    parser.add("--cache", "FILE",
               "load a previous campaign report as a\n"
               "result cache (repeatable; also seeded\n"
               "from $CHEX_BENCH_CACHE, colon-separated).\n"
               "Jobs whose spec hash and seed match a\n"
               "successful prior job are not re-simulated",
               [&](const std::string &v) {
                   cache_paths.push_back(v);
                   return true;
               },
               cli::Repeat::Allowed);
    parser.add("--no-cache",
               "ignore --cache and $CHEX_BENCH_CACHE",
               [&]() { no_cache = true; });
    parser.add("--from-snapshot", "FILE",
               "fan the campaign out from the warmed machine\n"
               "states in a snapshot bundle written by the\n"
               "`snapshot` subcommand (also seeded from\n"
               "$CHEX_BENCH_SNAPSHOT). Jobs with a matching\n"
               "bundle entry restore it instead of running\n"
               "the warm-up prefix from scratch",
               [&](const std::string &v) {
                   snapshot_path = v;
                   return true;
               });
    parser.add("--out", "FILE", "write the JSON report to FILE",
               [&](const std::string &v) {
                   out_path = v;
                   return true;
               });
    parser.add("--quiet", "suppress per-job progress lines",
               [&]() { quiet = true; });
    parser.add("--list", "list profiles and variant tokens, exit",
               [&]() { list_only = true; });

    switch (parser.parse(argc, argv, begin)) {
      case cli::ParseStatus::Ok: break;
      case cli::ParseStatus::ExitOk: return 0;
      case cli::ParseStatus::ExitUsage: return 2;
    }
    if (list_only) {
        listChoices();
        return 0;
    }

    if (reps == 0)
        reps = 1;
    if (scale == 0)
        scale = 1;
    if (timeout > 0.0 && !isolate) {
        std::fprintf(stderr,
                     "%s: --timeout requires process isolation; "
                     "enabling --isolate\n",
                     argv0);
        isolate = true;
    }

    std::vector<BenchmarkProfile> profiles;
    std::vector<VariantKind> variants;
    if (!resolveProfiles(argv0, profiles_arg, scale, &profiles) ||
        !resolveVariants(argv0, variants_arg, &variants)) {
        return 2;
    }
    if (profiles.empty() || variants.empty()) {
        std::fprintf(stderr, "%s: nothing to run\n", argv0);
        return 2;
    }

    std::vector<driver::JobSpec> specs =
        buildSpecs(profiles, variants, reps, seed);

    driver::CampaignOptions opts;
    opts.workers = static_cast<unsigned>(jobs);
    opts.seed = seed;
    opts.maxAttempts = static_cast<unsigned>(retries ? retries : 1);
    opts.isolation = isolate;
    opts.timeoutSeconds = timeout;
    opts.shardIndex = shard_index;
    opts.shardCount = shard_count;

    if (!loadCaches(argv0, cache_paths, no_cache, &opts))
        return 2;

    // The snapshot bundle gets the same hard-error policy as the
    // cache: an explicit --from-snapshot that cannot be honored must
    // not silently degrade into re-simulating every warm-up prefix.
    if (!snapshot_path.empty()) {
        snapshot::Bundle bundle;
        std::string err;
        if (!snapshot::loadBundleFile(snapshot_path, &bundle, &err)) {
            std::fprintf(stderr, "%s: snapshot %s\n", argv0,
                         err.c_str());
            return 2;
        }
        opts.snapshot = std::make_shared<const snapshot::Bundle>(
            std::move(bundle));
    }

    std::ofstream out;
    if (!openOutput(argv0, out_path, &out))
        return 1;

    size_t in_shard = 0;
    for (size_t i = 0; i < specs.size(); ++i)
        if (i % shard_count == shard_index)
            ++in_shard;
    if (shard_count > 1) {
        std::printf("shard %u/%u: %zu of %zu jobs in shard\n",
                    shard_index, shard_count, in_shard,
                    specs.size());
    }

    size_t done = 0;
    if (!quiet) {
        opts.onJobDone = [&](const driver::JobResult &jr) {
            ++done;
            if (jr.failed) {
                std::printf("[%3zu/%zu] %-40s FAILED [%s] (%s)\n",
                            done, in_shard, jr.label.c_str(),
                            driver::failureCauseName(jr.cause),
                            jr.error.c_str());
            } else if (jr.cached) {
                std::printf("[%3zu/%zu] %-40s %10lu cycles  ipc %.2f"
                            "  (cached)\n",
                            done, in_shard, jr.label.c_str(),
                            static_cast<unsigned long>(jr.run.cycles),
                            jr.run.ipc);
            } else {
                std::printf("[%3zu/%zu] %-40s %10lu cycles  ipc %.2f"
                            "  %.2fs\n",
                            done, in_shard, jr.label.c_str(),
                            static_cast<unsigned long>(jr.run.cycles),
                            jr.run.ipc, jr.wallSeconds);
            }
            std::fflush(stdout);
        };
    }

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

int
attackMain(const char *argv0, int argc, char **argv, int begin)
{
    driver::EnvOptions env = driver::optionsFromEnv();

    std::string attacks_arg = "gen/mix";
    std::string variants_arg = "baseline,ucode-pred";
    std::string out_path;
    std::string security_out_path;
    std::string from_report_path;
    uint64_t seeds = 64;
    uint64_t jobs = env.jobs;
    uint64_t seed = 1;
    uint64_t retries = 1;
    bool isolate = env.isolate;
    double timeout = env.timeoutSeconds;
    unsigned shard_index = env.shardIndex;
    unsigned shard_count = env.shardCount;
    bool quiet = false;
    std::vector<std::string> cache_paths = env.cachePaths;
    bool no_cache = false;
    bool no_uninit = false;
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
               [&](const std::string &v) {
                   attacks_arg = v;
                   return true;
               });
    parser.add("--seeds", "N",
               "generated-attack instances per gen/<family>\n"
               "token, seeded from (campaign seed, instance\n"
               "index); hand-written cases always run once\n"
               "(default: 64)",
               [&](const std::string &v) {
                   return parseUint(v, seeds);
               });
    parser.add("--variants", "LIST",
               "comma-separated variant tokens, or 'all';\n"
               "'baseline' is force-included for exploit\n"
               "validation (default: baseline,ucode-pred)",
               [&](const std::string &v) {
                   variants_arg = v;
                   return true;
               });
    parser.add("--jobs", "N",
               "worker threads (default: $CHEX_BENCH_JOBS or all "
               "cores)",
               [&](const std::string &v) {
                   return parseUint(v, jobs);
               });
    parser.add("--seed", "S", "campaign seed (default: 1)",
               [&](const std::string &v) {
                   return parseUint(v, seed);
               });
    parser.add("--retries", "N",
               "attempts per job before it is recorded\n"
               "as failed (default: 1)",
               [&](const std::string &v) {
                   return parseUint(v, retries);
               });
    parser.add("--isolate",
               "fork each job into its own child process",
               [&]() { isolate = true; });
    parser.add("--timeout", "SECS",
               "per-attempt wall-clock watchdog; implies\n"
               "--isolate",
               [&](const std::string &v) {
                   char *end = nullptr;
                   double t = std::strtod(v.c_str(), &end);
                   if (!end || *end != '\0' || !(t >= 0.0))
                       return false;
                   timeout = t;
                   return true;
               });
    parser.add("--shard", "I/N",
               "run only shard I of N; shards merge with\n"
               "`merge`, then distill with `attack\n"
               "--from-report` (default: $CHEX_BENCH_SHARD\n"
               "or 0/1)",
               [&](const std::string &v) {
                   std::string err;
                   if (!driver::parseShardSpec(v, shard_index,
                                               shard_count, &err)) {
                       std::fprintf(stderr, "%s: --shard %s: %s\n",
                                    argv0, v.c_str(), err.c_str());
                       return false;
                   }
                   return true;
               });
    parser.add("--cache", "FILE",
               "load a previous campaign report as a result\n"
               "cache (repeatable; also seeded from\n"
               "$CHEX_BENCH_CACHE)",
               [&](const std::string &v) {
                   cache_paths.push_back(v);
                   return true;
               },
               cli::Repeat::Allowed);
    parser.add("--no-cache",
               "ignore --cache and $CHEX_BENCH_CACHE",
               [&]() { no_cache = true; });
    parser.add("--out", "FILE",
               "write the raw campaign report to FILE",
               [&](const std::string &v) {
                   out_path = v;
                   return true;
               });
    parser.add("--security-out", "FILE",
               "write the distilled chex-security-report-v1\n"
               "to FILE (refused for sharded runs: merge the\n"
               "shards, then use --from-report)",
               [&](const std::string &v) {
                   security_out_path = v;
                   return true;
               });
    parser.add("--from-report", "FILE",
               "skip running: distill the security report\n"
               "from an existing (merged) campaign report",
               [&](const std::string &v) {
                   from_report_path = v;
                   return true;
               });
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

    switch (parser.parse(argc, argv, begin)) {
      case cli::ParseStatus::Ok: break;
      case cli::ParseStatus::ExitOk: return 0;
      case cli::ParseStatus::ExitUsage: return 2;
    }
    if (list_only) {
        listAttackChoices();
        return 0;
    }

    std::string ctx = std::string(argv0) + " attack";

    // --from-report is the distill-only mode: load, derive, write.
    if (!from_report_path.empty()) {
        driver::CampaignReport prior;
        std::string err;
        if (!driver::loadReportFile(from_report_path, prior, &err)) {
            std::fprintf(stderr, "%s: %s\n", ctx.c_str(),
                         err.c_str());
            return 2;
        }
        driver::SecurityReport sec;
        if (!driver::buildSecurityReport(prior, &sec, &err)) {
            std::fprintf(stderr, "%s: %s\n", ctx.c_str(),
                         err.c_str());
            return 2;
        }
        if (!security_out_path.empty()) {
            std::ofstream sout(security_out_path);
            if (!sout) {
                std::fprintf(stderr, "%s: cannot write '%s'\n",
                             ctx.c_str(),
                             security_out_path.c_str());
                return 1;
            }
            driver::writeSecurityReport(sec, sout);
        } else {
            driver::writeSecurityReport(sec, std::cout);
        }
        if (!quiet)
            printSecuritySummary(sec);
        return 0;
    }

    if (seeds == 0)
        seeds = 1;
    if (timeout > 0.0 && !isolate)
        isolate = true;
    if (shard_count > 1 && !security_out_path.empty()) {
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
        !resolveVariants(ctx.c_str(), variants_arg, &variants)) {
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
        uint64_t count = isGeneratedAttackId(id) ? seeds : 1;
        for (uint64_t i = 0; i < count; ++i, ++instance) {
            uint64_t instance_seed = driver::jobSeed(seed, instance);
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
    opts.workers = static_cast<unsigned>(jobs);
    opts.seed = seed;
    opts.maxAttempts = static_cast<unsigned>(retries ? retries : 1);
    opts.isolation = isolate;
    opts.timeoutSeconds = timeout;
    opts.shardIndex = shard_index;
    opts.shardCount = shard_count;

    if (!loadCaches(ctx, cache_paths, no_cache, &opts))
        return 2;
    std::ofstream out, security_out;
    if (!openOutput(ctx, out_path, &out) ||
        !openOutput(ctx, security_out_path, &security_out)) {
        return 1;
    }

    size_t in_shard = 0;
    for (size_t i = 0; i < specs.size(); ++i)
        if (i % shard_count == shard_index)
            ++in_shard;
    if (shard_count > 1) {
        std::printf("shard %u/%u: %zu of %zu attack jobs in shard\n",
                    shard_index, shard_count, in_shard,
                    specs.size());
    }

    size_t done = 0;
    if (!quiet) {
        opts.onJobDone = [&](const driver::JobResult &jr) {
            ++done;
            if (jr.failed) {
                std::printf("[%3zu/%zu] %-44s FAILED [%s] (%s)\n",
                            done, in_shard, jr.label.c_str(),
                            driver::failureCauseName(jr.cause),
                            jr.error.c_str());
            } else {
                const char *verdict =
                    jr.run.violationDetected
                        ? "DETECTED"
                        : (jr.run.indicatorChecked
                               ? (jr.run.indicatorFired
                                      ? "exploit landed"
                                      : "exploit dud")
                               : "escaped");
                std::printf("[%3zu/%zu] %-44s %s%s\n", done,
                            in_shard, jr.label.c_str(), verdict,
                            jr.cached ? "  (cached)" : "");
            }
            std::fflush(stdout);
        };
    }

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
    if (std::max(1u, report.shardCount) == 1) {
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
snapshotMain(const char *argv0, int argc, char **argv, int begin)
{
    driver::EnvOptions env = driver::optionsFromEnv();

    std::string profiles_arg = "spec";
    std::string variants_arg = "baseline,ucode-pred";
    std::string out_path;
    uint64_t seed = 1;
    uint64_t scale = env.scale;
    uint64_t warmup = 2000;
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
    parser.add("--profiles", "LIST",
               "comma-separated profile names, or one of\n"
               "'spec', 'parsec', 'all', 'server' (default: spec)",
               [&](const std::string &v) {
                   profiles_arg = v;
                   return true;
               });
    parser.add("--variants", "LIST",
               "comma-separated variant tokens, or 'all'\n"
               "(default: baseline,ucode-pred)",
               [&](const std::string &v) {
                   variants_arg = v;
                   return true;
               });
    parser.add("--seed", "S", "campaign seed (default: 1)",
               [&](const std::string &v) {
                   return parseUint(v, seed);
               });
    parser.add("--scale", "K",
               "divide workload iteration counts by K\n"
               "(default: $CHEX_BENCH_SCALE or 1)",
               [&](const std::string &v) {
                   return parseUint(v, scale);
               });
    parser.add("--warmup", "N",
               "macro-ops to execute before checkpointing\n"
               "each machine (default: 2000)",
               [&](const std::string &v) {
                   return parseUint(v, warmup);
               });
    parser.add("--out", "FILE",
               "write the snapshot bundle to FILE (required)",
               [&](const std::string &v) {
                   out_path = v;
                   return true;
               });
    parser.add("--quiet", "suppress per-machine progress lines",
               [&]() { quiet = true; });
    parser.add("--list", "list profiles and variant tokens, exit",
               [&]() { list_only = true; });

    switch (parser.parse(argc, argv, begin)) {
      case cli::ParseStatus::Ok: break;
      case cli::ParseStatus::ExitOk: return 0;
      case cli::ParseStatus::ExitUsage: return 2;
    }
    if (list_only) {
        listChoices();
        return 0;
    }

    std::string ctx = std::string(argv0) + " snapshot";
    if (out_path.empty()) {
        std::fprintf(stderr, "%s: --out is required\n", ctx.c_str());
        return 2;
    }
    if (scale == 0)
        scale = 1;
    if (warmup == 0) {
        std::fprintf(stderr,
                     "%s: --warmup must be at least 1 macro-op\n",
                     ctx.c_str());
        return 2;
    }

    std::vector<BenchmarkProfile> profiles;
    std::vector<VariantKind> variants;
    if (!resolveProfiles(ctx.c_str(), profiles_arg, scale,
                         &profiles) ||
        !resolveVariants(ctx.c_str(), variants_arg, &variants)) {
        return 2;
    }
    if (profiles.empty() || variants.empty()) {
        std::fprintf(stderr, "%s: nothing to snapshot\n",
                     ctx.c_str());
        return 2;
    }

    // Enumerate exactly the single-rep job list `run` would build:
    // the per-entry specKey must equal the spec hash the driver
    // computes for the matching job, or the fan-out finds nothing.
    std::vector<driver::JobSpec> specs =
        buildSpecs(profiles, variants, /*reps=*/1, seed);

    snapshot::Bundle bundle;
    bundle.campaignSeed = seed;
    bundle.warmupMacros = warmup;
    bundle.entries.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        const driver::JobSpec &spec = specs[i];
        snapshot::MachineEntry entry;
        std::string err;
        if (!snapshot::buildEntry(spec.profile, spec.config, seed,
                                  warmup,
                                  driver::specHash(spec, seed),
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
                static_cast<unsigned long long>(seed));
    return 0;
}

int
replayMain(const char *argv0, int argc, char **argv, int begin)
{
    driver::EnvOptions env = driver::optionsFromEnv();

    std::string report_path;
    std::string snapshot_path = env.snapshotPath;
    std::optional<size_t> index;
    uint64_t scale = env.scale;
    bool isolate = env.isolate;
    double timeout = env.timeoutSeconds;
    bool uninit = false;
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
               [&](const std::string &v) {
                   report_path = v;
                   return true;
               });
    parser.add("--index", "N",
               "report row to replay (default: the first\n"
               "failed row)",
               [&](const std::string &v) {
                   uint64_t n;
                   if (!parseUint(v, n))
                       return false;
                   index = static_cast<size_t>(n);
                   return true;
               });
    parser.add("--from-snapshot", "FILE",
               "the snapshot bundle the campaign fanned out\n"
               "from; required to replay from-snapshot rows\n"
               "(also seeded from $CHEX_BENCH_SNAPSHOT)",
               [&](const std::string &v) {
                   snapshot_path = v;
                   return true;
               });
    parser.add("--scale", "K",
               "the --scale the original campaign ran with\n"
               "(default: $CHEX_BENCH_SCALE or 1)",
               [&](const std::string &v) {
                   return parseUint(v, scale);
               });
    parser.add("--isolate",
               "fork the replayed job into its own child\n"
               "process, so a crash reproduces as a failed\n"
               "job (cause: signal) instead of killing the\n"
               "replay",
               [&]() { isolate = true; });
    parser.add("--timeout", "SECS",
               "per-attempt wall-clock watchdog for the\n"
               "replayed job. Implies --isolate",
               [&](const std::string &v) {
                   char *end = nullptr;
                   double t = std::strtod(v.c_str(), &end);
                   if (!end || *end != '\0' || !(t >= 0.0))
                       return false;
                   timeout = t;
                   return true;
               });
    parser.add("--uninit",
               "the original campaign ran with\n"
               "uninitialized-read detection on (the\n"
               "`attack` subcommand's default); required\n"
               "for such rows, or the reconstructed spec\n"
               "hash will not match the recorded one",
               [&]() { uninit = true; });
    parser.add("--quiet", "suppress the replay progress line",
               [&]() { quiet = true; });

    switch (parser.parse(argc, argv, begin)) {
      case cli::ParseStatus::Ok: break;
      case cli::ParseStatus::ExitOk: return 0;
      case cli::ParseStatus::ExitUsage: return 2;
    }

    std::string ctx = std::string(argv0) + " replay";
    if (report_path.empty()) {
        std::fprintf(stderr, "%s: --report is required\n",
                     ctx.c_str());
        return 2;
    }
    if (scale == 0)
        scale = 1;
    if (timeout > 0.0 && !isolate)
        isolate = true;

    driver::CampaignReport report;
    std::string err;
    if (!driver::loadReportFile(report_path, report, &err)) {
        std::fprintf(stderr, "%s: %s\n", ctx.c_str(), err.c_str());
        return 2;
    }

    std::shared_ptr<const snapshot::Bundle> bundle;
    if (!snapshot_path.empty()) {
        snapshot::Bundle b;
        if (!snapshot::loadBundleFile(snapshot_path, &b, &err)) {
            std::fprintf(stderr, "%s: snapshot %s\n", ctx.c_str(),
                         err.c_str());
            return 2;
        }
        bundle =
            std::make_shared<const snapshot::Bundle>(std::move(b));
    }

    size_t row = 0;
    if (!driver::selectReplayRow(report, index, &row, &err)) {
        std::fprintf(stderr, "%s: %s\n", ctx.c_str(), err.c_str());
        return 2;
    }

    SystemConfig base;
    base.detectUninitializedReads = uninit;

    driver::ReplayPlan plan;
    if (!driver::planReplay(report, row, base, scale,
                            bundle.get(), &plan, &err)) {
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

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.seed = report.seed;
    opts.isolation = isolate;
    opts.timeoutSeconds = timeout;
    opts.snapshot = bundle;

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
mergeMain(const char *argv0, int argc, char **argv, int begin)
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
               [&](const std::string &v) {
                   out_path = v;
                   return true;
               });
    parser.add("--quiet", "suppress the merge summary line",
               [&]() { quiet = true; });

    switch (parser.parse(argc, argv, begin)) {
      case cli::ParseStatus::Ok: break;
      case cli::ParseStatus::ExitOk: return 0;
      case cli::ParseStatus::ExitUsage: return 2;
    }

    const std::vector<std::string> &paths = parser.positionalArgs();
    if (paths.empty()) {
        std::fprintf(stderr, "%s merge: no shard reports given\n",
                     argv0);
        parser.usage(stderr);
        return 2;
    }

    std::vector<driver::CampaignReport> shards;
    shards.reserve(paths.size());
    for (const std::string &path : paths) {
        driver::CampaignReport shard;
        std::string err;
        if (!driver::loadReportFile(path, shard, &err)) {
            std::fprintf(stderr, "%s merge: %s\n", argv0,
                         err.c_str());
            return 2;
        }
        shards.push_back(std::move(shard));
    }

    driver::CampaignReport merged;
    std::string err;
    if (!driver::mergeReports(shards, merged, &err)) {
        std::fprintf(stderr, "%s merge: %s\n", argv0, err.c_str());
        return 2;
    }

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "%s merge: cannot write '%s'\n",
                         argv0, out_path.c_str());
            return 1;
        }
        driver::writeReport(merged, out);
    } else {
        driver::writeReport(merged, std::cout);
    }

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
        "  run       run a simulation campaign (the default: a bare\n"
        "            `%s [options]` invocation means `run`)\n"
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
        argv0, argv0, argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1) {
        std::string first = argv[1];
        if (first == "run")
            return runMain(argv[0], argc, argv, 2, false);
        if (first == "attack")
            return attackMain(argv[0], argc, argv, 2);
        if (first == "merge")
            return mergeMain(argv[0], argc, argv, 2);
        if (first == "snapshot")
            return snapshotMain(argv[0], argc, argv, 2);
        if (first == "replay")
            return replayMain(argv[0], argc, argv, 2);
        if (first == "help" || first == "--help" || first == "-h") {
            globalUsage(argv[0], stdout);
            return 0;
        }
        if (!first.empty() && first[0] != '-') {
            std::fprintf(stderr, "%s: unknown command '%s'\n",
                         argv[0], first.c_str());
            globalUsage(argv[0], stderr);
            return 2;
        }
    }
    // Back-compat: flags with no subcommand mean `run`.
    return runMain(argv[0], argc, argv, 1, true);
}
