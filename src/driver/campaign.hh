/**
 * @file
 * The simulation-campaign driver: runs a declarative list of jobs
 * (workload profile × SystemConfig/variant × seed × repetition) on a
 * fixed-size worker thread pool with a lock-guarded work queue and
 * aggregates the per-job RunResults into a campaign report.
 *
 * Determinism contract: a job's outcome depends only on its JobSpec
 * and its seed — the seed is either pinned in the spec or derived
 * from (campaign seed, job index) via a splitmix64-style hash —
 * never on scheduling. Each worker constructs the System, the
 * workload program, and everything else it touches privately, so a
 * campaign run with `workers = N` is bit-for-bit identical to the
 * same campaign run with `workers = 1`.
 *
 * Failure isolation: a job whose body throws is recorded as failed
 * (with the exception message and attempt count) and the rest of
 * the campaign completes; an optional bounded retry re-runs a
 * throwing job with the same seed up to maxAttempts times.
 *
 * Process isolation (CampaignOptions::isolation): each attempt runs
 * in a fork()ed worker process supervised by a per-attempt
 * wall-clock watchdog, so a chex_panic()/chex_assert() abort, a
 * stray SIGSEGV, or a stuck workload is captured as a failed job
 * with a structured FailureCause instead of taking down (or hanging)
 * the campaign process. Each worker thread has one worker process,
 * reused until an attempt fails. See subprocess.hh;
 * in-process execution remains the default and is bit-for-bit
 * unaffected.
 *
 * Result caching (CampaignOptions::cacheReports): prior campaign
 * reports act as a result cache. Every job is content-hashed (see
 * spec_hash.hh) and a job whose (specHash, seed) matches a prior
 * *successful* job is satisfied from the cache without simulating —
 * the cached RunResult is bit-identical by the determinism contract
 * above. Failed or timed-out prior jobs never satisfy the cache, and
 * jobs with a body override are never cached (their outcome is not a
 * function of the hashed spec).
 *
 * Sharding (CampaignOptions::shardIndex/shardCount): a campaign can
 * be split across machines by job index — shard I of N simulates
 * only the jobs with `index % N == I` and emits placeholder rows
 * (JobResult::skipped) for everything else, so submission-order
 * indices survive into every shard report. Because per-job seeds are
 * derived from (campaign seed, index), the in-shard jobs are
 * bit-identical to the same jobs of an unsharded run; merge.hh
 * recombines K shard reports into one complete report.
 */

#ifndef CHEX_DRIVER_CAMPAIGN_HH
#define CHEX_DRIVER_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "workload/profiles.hh"

namespace chex
{

namespace snapshot
{
struct Bundle;
} // namespace snapshot

namespace driver
{

/** One schedulable unit of simulation work. */
struct JobSpec
{
    /** Display label, e.g. "mcf/ucode-pred". */
    std::string label;

    /** Workload to synthesize (by value: jobs share nothing). */
    BenchmarkProfile profile;

    /** Full system configuration, including the variant. */
    SystemConfig config;

    /**
     * Pinned workload seed. Unset: the driver derives one from
     * (campaign seed, job index), which keeps repetitions of the
     * same (profile, config) statistically independent while staying
     * schedule-invariant.
     */
    std::optional<uint64_t> workloadSeed;

    /** Repetition ordinal for sweeps that re-run a point. */
    unsigned repetition = 0;

    /**
     * Attack-case ID (attacks/registry.hh): "<suite>/<case>" for a
     * hand-written exploit or "gen/<family>" for a generated one.
     * Empty (the default) means a normal workload job. When set,
     * the default body ignores the synthetic workload and instead
     * resolves/synthesizes the attack program — for generated
     * attacks the job's effective seed doubles as the generator
     * seed, so one spec addresses a whole seedable family. The ID
     * is folded into the spec hash (spec_hash.hh), so attack jobs
     * cache, shard, and replay like any other job. Use
     * attackProfile() (workload/profiles.hh) as the profile so
     * replay can reconstruct the spec by name.
     */
    std::string attack;

    /**
     * Override of the job body (tests, custom campaigns). Default:
     * build a System from `config`, load `generateWorkload(profile,
     * seed)`, and run to completion; a run that neither exits nor
     * flags a violation throws (stuck workload).
     */
    std::function<RunResult(const JobSpec &, uint64_t seed)> body;
};

/** Why a job (or one attempt of it) failed. */
enum class FailureCause : uint8_t
{
    None,        // job succeeded
    Exception,   // body threw (in-process, or reported by the child)
    Signal,      // child died on a signal (SIGABRT from panic, SIGSEGV)
    Timeout,     // child exceeded the watchdog and was killed
    NonzeroExit, // child exited non-zero without reporting a result
};

/** Printable cause token ("exception", "signal", ...). */
const char *failureCauseName(FailureCause cause);

/** Outcome of one job, failed or not. */
struct JobResult
{
    size_t index = 0;        // position in the submitted job list
    std::string label;
    std::string profileName;
    std::string variant;     // variantName() of config.variant.kind
    uint64_t seed = 0;       // effective workload seed
    unsigned repetition = 0;
    std::string attack;      // JobSpec::attack ID ("" = workload job)

    /**
     * Canonical content hash of (spec, seed) — see spec_hash.hh.
     * 0 for body-override jobs, which are not content-hashable and
     * therefore never satisfiable from a result cache.
     */
    uint64_t specHash = 0;

    /**
     * True when this job was satisfied from a prior report via
     * CampaignOptions::cacheReports instead of being simulated;
     * `run` then carries the cached result and attempts is 0.
     */
    bool cached = false;

    /**
     * True when this job started from a restored checkpoint
     * (CampaignOptions::snapshot matched its spec) instead of a
     * cold System. specHash is then the *folded* hash — the base
     * spec hash combined with the snapshot's state hash (see
     * foldSnapshotHash) — because a from-snapshot job is a
     * different simulation point than a from-scratch one and must
     * never satisfy (or be satisfied by) its cache entries.
     */
    bool fromSnapshot = false;

    /**
     * True when this job belongs to another shard of a sharded
     * campaign: the row is a pure placeholder carrying only the
     * identity fields above (label, seed, specHash, ...) so that job
     * indices keep their submission-order meaning in every shard
     * report. A skipped job was neither run nor cached (`run` is
     * empty, attempts is 0) and is exactly what mergeReports()
     * replaces with the owning shard's real row.
     */
    bool skipped = false;

    bool failed = false;
    unsigned attempts = 0;   // 1 on first-try success; 0 when cached
    std::string error;       // failure detail when failed

    /** Structured failure classification (None when !failed). */
    FailureCause cause = FailureCause::None;

    /** Child exit code of the final attempt (cause NonzeroExit). */
    int exitCode = 0;

    /**
     * Terminating (cause Signal) or killing (cause Timeout) signal
     * number of the final attempt; 0 when the child was not
     * signalled.
     */
    int termSignal = 0;

    /**
     * Wall clock summed over all attempts; attemptSeconds keeps the
     * per-attempt breakdown. Under isolation, the first attempt in a
     * worker process also carries its first-touch page faults, and
     * the first attempt after a failed one also carries the re-fork
     * of its worker (the initial forks precede every job).
     */
    double wallSeconds = 0.0;
    std::vector<double> attemptSeconds;
    RunResult run;                      // valid only when !failed
};

/** Aggregated campaign outcome. */
struct CampaignReport
{
    std::vector<JobResult> jobs; // submission order
    unsigned workers = 0;
    uint64_t seed = 0;

    /**
     * Which slice of the campaign this report covers: shard
     * `shardIndex` of `shardCount`. An unsharded (or merged) report
     * is shard 0 of 1. Jobs outside the shard appear as skipped
     * placeholder rows and are excluded from every aggregate below.
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;

    size_t jobsRun = 0;    // in-shard jobs (run, cached, or failed)
    size_t jobsFailed = 0;
    size_t jobsCached = 0; // satisfied from cacheReports, not run
    size_t jobsSkipped = 0; // out-of-shard placeholder rows
    size_t jobsFromSnapshot = 0; // fanned out from a restored checkpoint

    double wallSeconds = 0.0;   // campaign wall clock
    double serialSeconds = 0.0; // sum of per-job wall clocks
    double speedup = 0.0;       // serialSeconds / wallSeconds

    uint64_t totalCycles = 0;   // over succeeded jobs (incl. cached)
    uint64_t totalUops = 0;
    double aggregateIpc = 0.0;  // totalUops / totalCycles
};

/** Campaign-wide execution knobs. */
struct CampaignOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned workers = 0;

    /** Campaign seed: root of all derived per-job seeds. */
    uint64_t seed = 1;

    /** Attempts per job (>= 1); retries re-use the job's seed. */
    unsigned maxAttempts = 1;

    /**
     * Run every attempt in a fork()ed worker process (crash/hang
     * capture; see subprocess.hh). runCampaign forks one per worker
     * thread before the threads start, and each thread sends its
     * worker job after job; successful attempts share it, and any
     * failed attempt retires it, so a retry or the next job starts
     * in a fresh fork. Reuse is
     * result-preserving: every body builds its own System and the
     * simulator keeps no mutable process-wide state. Off by default:
     * in-process execution stays the fast path, and no process is
     * forked.
     */
    bool isolation = false;

    /**
     * Per-attempt wall-clock watchdog in seconds, counted from when
     * the job is handed to its worker process; a worker still
     * running at the deadline is SIGKILLed and the attempt recorded
     * as FailureCause::Timeout. 0 disables the watchdog. Only
     * meaningful with isolation (in-process bodies cannot be safely
     * interrupted).
     */
    double timeoutSeconds = 0.0;

    /**
     * Progress hook, invoked as each job finishes. Serialized by a
     * dedicated callback lock (completion order, not submission
     * order) so a slow hook never stalls queue pops. Cache-satisfied
     * jobs invoke it too (before the worker pool starts, in
     * submission order) with JobResult::cached set.
     */
    std::function<void(const JobResult &)> onJobDone;

    /**
     * Result cache: prior campaign reports (typically loaded from
     * disk via driver::fromJson). A job whose (specHash, seed)
     * matches a successful prior job is satisfied from the cache
     * without simulating.
     */
    std::vector<CampaignReport> cacheReports;

    /**
     * Snapshot fan-out: a bundle of warmed machine states (see
     * snapshot/snapshot.hh, typically written by `chex-campaign
     * snapshot` and loaded from disk). A default-body job whose
     * spec hash matches a bundle entry restores that entry instead
     * of constructing a cold System, so every variant job of a
     * sweep resumes from its own warmed checkpoint. Jobs without a
     * matching entry run from scratch as usual. Matched jobs carry
     * JobResult::fromSnapshot and a folded specHash, which keeps
     * result caching and sharding sound (the same spec from-scratch
     * and from-snapshot are distinct cache identities).
     */
    std::shared_ptr<const snapshot::Bundle> snapshot;

    /**
     * Run only shard `shardIndex` of `shardCount`: jobs with
     * `index % shardCount != shardIndex` become skipped placeholder
     * rows — never simulated, never cache-satisfied, and never
     * reported through onJobDone. The default (0 of 1) runs
     * everything. shardIndex must be < shardCount (fatal otherwise);
     * a shardCount of 0 is treated as 1.
     */
    unsigned shardIndex = 0;
    unsigned shardCount = 1;
};

/**
 * Parse a shard spec of the form "I/N" (e.g. "0/2"): N >= 1 shards,
 * shard index I < N. Returns false — leaving @p index/@p count
 * untouched — and fills @p err (if non-null) for anything else.
 */
bool parseShardSpec(const std::string &spec, unsigned &index,
                    unsigned &count, std::string *err = nullptr);

/**
 * Derive the workload seed for job @p index of a campaign seeded
 * with @p campaign_seed (splitmix64 finalizer; never returns 0).
 */
uint64_t jobSeed(uint64_t campaign_seed, size_t index);

/** Run @p jobs to completion on the worker pool. */
CampaignReport runCampaign(const std::vector<JobSpec> &jobs,
                           const CampaignOptions &opts = {});

/**
 * Fill the still-zero summary of @p report from its rows: job counts
 * (skipped rows count only as skipped), serial seconds, cycle/µop
 * totals over succeeded jobs, and speedup and aggregate IPC against
 * @p wall_seconds. runCampaign and mergeReports both end with it.
 */
void summarizeReport(CampaignReport &report, double wall_seconds);

/**
 * Build the (profile × variant) cross-product job list benches and
 * the CLI sweep, every job pinned to @p workload_seed so a given
 * profile sees the identical program under every variant. @p base
 * supplies all non-variant configuration.
 */
std::vector<JobSpec>
buildMatrix(const std::vector<BenchmarkProfile> &profiles,
            const std::vector<VariantKind> &variants,
            uint64_t workload_seed, const SystemConfig &base = {});

} // namespace driver
} // namespace chex

#endif // CHEX_DRIVER_CAMPAIGN_HH
