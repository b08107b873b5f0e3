/**
 * @file
 * Shared helpers for the bench binaries: build a (profile × config)
 * job list and fan it out on the campaign driver's worker pool. Two
 * env knobs apply to every bench: CHEX_BENCH_SCALE divides
 * iteration counts for quick smoke runs, and CHEX_BENCH_JOBS caps
 * the pool width (default: all cores). A malformed value of either
 * is fatal. Caching, sharding, isolation and snapshot fan-out are
 * `chex-campaign` flags, not bench knobs.
 */

#ifndef CHEX_BENCH_COMMON_HH
#define CHEX_BENCH_COMMON_HH

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "driver/campaign.hh"
#include "sim/system.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

namespace chex
{
namespace bench
{

/**
 * The positive integer in env knob @p name (at most @p max), or
 * @p dflt when it is unset or empty. Anything else is fatal rather
 * than quietly replaced by the default.
 */
inline uint64_t
positiveEnv(const char *name, uint64_t dflt,
            uint64_t max = std::numeric_limits<uint64_t>::max())
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return dflt;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (s[0] < '0' || s[0] > '9' || *end != '\0' || errno != 0 ||
        v == 0 || v > max) {
        chex_fatal("%s='%s' is not a positive integer (at most %llu)",
                   name, s, static_cast<unsigned long long>(max));
    }
    return v;
}

/** Iteration divisor from $CHEX_BENCH_SCALE (default 1). */
inline uint64_t
scale()
{
    return positiveEnv("CHEX_BENCH_SCALE", 1);
}

/** Worker threads for sweeps: $CHEX_BENCH_JOBS, default all cores. */
inline unsigned
benchJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        positiveEnv("CHEX_BENCH_JOBS", hw ? hw : 1,
                    std::numeric_limits<unsigned>::max()));
}

/**
 * Run a prepared job list on the campaign driver's worker pool
 * (CHEX_BENCH_JOBS wide) and return the per-job results in
 * submission order. Every failed cell is reported before exiting — a
 * sweep that dies on the first failure hides every other broken
 * cell, which matters when a config change breaks a whole variant
 * column at once.
 */
inline std::vector<RunResult>
runCampaignJobs(std::vector<driver::JobSpec> jobs, uint64_t seed)
{
    driver::CampaignOptions opts;
    opts.seed = seed;
    opts.workers = benchJobs();
    driver::CampaignReport report = driver::runCampaign(jobs, opts);

    std::vector<RunResult> results;
    results.reserve(report.jobs.size());
    size_t bad = 0;
    for (const driver::JobResult &jr : report.jobs) {
        // Attack jobs (JobSpec::attack) are *supposed* to end in a
        // detected violation (enforcement variants) or a hijack
        // (baseline): both are valid measurements, not broken cells.
        bool attack_outcome =
            jr.index < jobs.size() && !jobs[jr.index].attack.empty() &&
            (jr.run.violationDetected || jr.run.hijackedControlFlow);
        if (!jr.failed && attack_outcome) {
            // A concluded exploit measurement.
        } else if (jr.failed || !jr.run.exited) {
            std::fprintf(stderr,
                         "bench: %s did not complete cleanly%s%s\n",
                         jr.label.c_str(),
                         jr.failed ? ": " : " (violation)",
                         jr.failed ? jr.error.c_str() : "");
            ++bad;
        }
        results.push_back(jr.run);
    }
    if (bad) {
        std::fprintf(stderr, "bench: %zu of %zu sweep cells failed\n",
                     bad, report.jobs.size());
        std::exit(1);
    }
    return results;
}

/** A named full-SystemConfig column for config sweeps. */
struct ConfigPoint
{
    std::string name;
    SystemConfig config;
};

/**
 * The (profile × config) job list: @p profiles scaled by
 * CHEX_BENCH_SCALE, each run under every column of @p configs with
 * workload seed @p seed, in row-major order
 * (`jobs[pi * configs.size() + ci]`, labelled "profile/column").
 */
inline std::vector<driver::JobSpec>
matrixJobs(const std::vector<BenchmarkProfile> &profiles,
           const std::vector<ConfigPoint> &configs, uint64_t seed)
{
    std::vector<driver::JobSpec> jobs;
    jobs.reserve(profiles.size() * configs.size());
    for (const BenchmarkProfile &p : profiles) {
        BenchmarkProfile scaled = p.scaledBy(scale());
        for (const ConfigPoint &c : configs) {
            driver::JobSpec spec;
            spec.label = p.name + "/" + c.name;
            spec.profile = scaled;
            spec.config = c.config;
            spec.workloadSeed = seed;
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

/**
 * Geometric mean helper for summary rows. Zero and negative inputs
 * have no log — instead of silently poisoning the whole summary with
 * -inf/NaN they are skipped with a warning (0 if nothing remains).
 */
inline double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    size_t used = 0;
    for (double v : values) {
        if (!(v > 0.0)) { // also catches NaN
            std::fprintf(stderr,
                         "bench: geomean: skipping non-positive "
                         "value %g\n",
                         v);
            continue;
        }
        log_sum += std::log(v);
        ++used;
    }
    if (used == 0)
        return 0.0;
    return std::exp(log_sum / static_cast<double>(used));
}

} // namespace bench
} // namespace chex

#endif // CHEX_BENCH_COMMON_HH
