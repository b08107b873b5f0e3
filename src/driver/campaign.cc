#include "campaign.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "attacks/registry.hh"
#include "base/logging.hh"
#include "driver/spec_hash.hh"
#include "driver/subprocess.hh"
#include "snapshot/snapshot.hh"
#include "workload/generator.hh"

namespace chex
{
namespace driver
{

const char *
failureCauseName(FailureCause cause)
{
    switch (cause) {
      case FailureCause::None: return "none";
      case FailureCause::Exception: return "exception";
      case FailureCause::Signal: return "signal";
      case FailureCause::Timeout: return "timeout";
      case FailureCause::NonzeroExit: return "nonzero-exit";
      default: return "???";
    }
}

bool
parseShardSpec(const std::string &spec, unsigned &index,
               unsigned &count, std::string *err)
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };
    // A plain decimal that fits an unsigned.
    auto number = [](const std::string &s, unsigned &out) {
        if (s.empty() ||
            s.find_first_not_of("0123456789") != std::string::npos)
            return false;
        errno = 0;
        unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
        if (errno != 0 || v > std::numeric_limits<unsigned>::max())
            return false;
        out = static_cast<unsigned>(v);
        return true;
    };
    size_t slash = spec.find('/');
    if (slash == std::string::npos || slash == 0 ||
        slash + 1 == spec.size())
        return fail("expected INDEX/COUNT, e.g. 0/2");
    std::string idx_s = spec.substr(0, slash);
    std::string cnt_s = spec.substr(slash + 1);
    unsigned idx = 0, cnt = 0;
    if (!number(idx_s, idx))
        return fail(csprintf("'%s' is not a shard index",
                             idx_s.c_str()));
    if (!number(cnt_s, cnt) || cnt == 0)
        return fail(csprintf("'%s' is not a positive shard count",
                             cnt_s.c_str()));
    if (idx >= cnt)
        return fail(csprintf("shard index %u out of range for %u "
                             "shards",
                             idx, cnt));
    index = idx;
    count = cnt;
    return true;
}

uint64_t
jobSeed(uint64_t campaign_seed, size_t index)
{
    // Decorrelate (seed, index) pairs with the splitmix64 finalizer;
    // the golden-ratio stride keeps adjacent indices far apart.
    uint64_t x = campaign_seed +
                 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(index) + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x ? x : 1;
}

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Sanity-check a finished run (stuck workloads must not pass). */
RunResult
checkedResult(const JobSpec &spec, RunResult r)
{
    if (!r.exited && !r.violationDetected && !r.hijackedControlFlow)
        throw std::runtime_error(
            csprintf("workload '%s' neither exited nor flagged a "
                     "violation (macro-op cap %s)",
                     spec.profile.name.c_str(),
                     r.hitMacroCap ? "hit" : "not hit"));
    return r;
}

/** Default job body: synthesize, simulate, sanity-check. */
RunResult
runSpec(const JobSpec &spec, uint64_t seed)
{
    System sys(spec.config);
    sys.load(generateWorkload(spec.profile, seed));
    return checkedResult(spec, sys.run());
}

/**
 * Attack job body: resolve (or synthesize, for "gen/<family>" IDs
 * with the job seed as generator input) the attack case, run it,
 * and record whether the exploit's corruption indicator fired —
 * the baseline-validity signal the security report is built on.
 */
RunResult
runAttackSpec(const JobSpec &spec, uint64_t seed)
{
    AttackCase attack;
    std::string err;
    if (!findAttackByName(spec.attack, seed, &attack, &err))
        throw std::runtime_error(err);
    System sys(spec.config);
    sys.load(attack.program);
    RunResult r = checkedResult(spec, sys.run());
    if (attack.indicatorAddr != 0) {
        r.indicatorChecked = true;
        r.indicatorFired =
            sys.memory().read(attack.indicatorAddr, 8) ==
            attack.indicatorExpect;
    }
    return r;
}

/** Snapshot job body: restore the warmed checkpoint, then run on. */
RunResult
runSpecFromSnapshot(const JobSpec &spec, uint64_t seed,
                    const snapshot::MachineEntry &entry)
{
    if (entry.seed != seed) {
        // The spec hash covers the seed, so a key match with a
        // different seed means the bundle itself is inconsistent.
        throw std::runtime_error(
            csprintf("snapshot entry for '%s' was built with seed "
                     "%llu, job wants %llu",
                     spec.label.c_str(),
                     static_cast<unsigned long long>(entry.seed),
                     static_cast<unsigned long long>(seed)));
    }
    System sys(spec.config);
    std::string err;
    if (!snapshot::restoreEntry(entry, spec.profile, &sys, &err)) {
        throw std::runtime_error(
            csprintf("cannot restore snapshot for '%s': %s",
                     spec.label.c_str(), err.c_str()));
    }
    return checkedResult(spec, sys.run());
}

/**
 * The snapshot bundle entry this job would restore from, or nullptr
 * when the job runs from scratch (no bundle, body override, or no
 * entry for its spec). Keyed by the *base* spec hash — the folded
 * hash in JobResult::specHash exists precisely so that it cannot
 * collide back onto the bundle key space.
 */
const snapshot::MachineEntry *
snapshotEntryFor(const JobSpec &spec, uint64_t seed,
                 const CampaignOptions &opts)
{
    if (!opts.snapshot || spec.body || !spec.attack.empty())
        return nullptr;
    return opts.snapshot->findBySpecKey(specHash(spec, seed));
}

/** The job's workload seed: pinned, or derived from its index. */
uint64_t
effectiveSeed(const JobSpec &spec, size_t index,
              const CampaignOptions &opts)
{
    return spec.workloadSeed ? *spec.workloadSeed
                             : jobSeed(opts.seed, index);
}

/** Evaluate the job's body once: override, attack, or workload. */
RunResult
runBody(const JobSpec &spec, uint64_t seed, const CampaignOptions &opts)
{
    if (spec.body)
        return spec.body(spec, seed);
    if (!spec.attack.empty())
        return runAttackSpec(spec, seed);
    const snapshot::MachineEntry *snap =
        snapshotEntryFor(spec, seed, opts);
    return snap ? runSpecFromSnapshot(spec, seed, *snap)
                : runSpec(spec, seed);
}

/**
 * Fill the identity fields every JobResult carries, run or cached.
 * specHash stays 0 for body-override jobs: their outcome is not a
 * function of the hashed spec, so recording a hash would let a later
 * campaign wrongly satisfy a default-body job from their result.
 * Snapshot-matched jobs fold the snapshot state hash in: a job
 * resumed from a checkpoint is a different simulation point.
 */
JobResult
describeJob(const JobSpec &spec, size_t index,
            const CampaignOptions &opts)
{
    JobResult jr;
    jr.index = index;
    jr.label = spec.label;
    jr.profileName = spec.profile.name;
    jr.variant = variantName(spec.config.variant.kind);
    jr.repetition = spec.repetition;
    jr.attack = spec.attack;
    jr.seed = effectiveSeed(spec, index, opts);
    jr.specHash = spec.body ? 0 : specHash(spec, jr.seed);
    if (const snapshot::MachineEntry *entry =
            snapshotEntryFor(spec, jr.seed, opts)) {
        jr.fromSnapshot = true;
        jr.specHash = foldSnapshotHash(jr.specHash, entry->stateHash);
    }
    return jr;
}

/**
 * Execute one job, including bounded retry and failure capture;
 * isolated attempts run in @p worker.
 */
JobResult
executeJob(const JobSpec &spec, size_t index,
           const CampaignOptions &opts, WorkerProcess &worker)
{
    JobResult jr = describeJob(spec, index, opts);

    // Wall time accumulates across attempts (attemptSeconds keeps
    // the per-attempt breakdown), so a job that fails twice before
    // succeeding reports what it actually cost, not just the last
    // attempt.
    auto record_attempt = [&](double seconds) {
        jr.attemptSeconds.push_back(seconds);
        jr.wallSeconds += seconds;
    };

    unsigned max_attempts = std::max(1u, opts.maxAttempts);
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        jr.attempts = attempt;

        if (opts.isolation) {
            AttemptOutcome out =
                worker.run(index, opts.timeoutSeconds);
            record_attempt(out.wallSeconds);
            if (out.ok) {
                jr.run = std::move(out.run);
                jr.failed = false;
                jr.error.clear();
                jr.cause = FailureCause::None;
                jr.exitCode = 0;
                jr.termSignal = 0;
                return jr;
            }
            jr.failed = true;
            jr.cause = out.cause;
            jr.error = out.error;
            jr.exitCode = out.exitCode;
            jr.termSignal = out.termSignal;
            continue;
        }

        Clock::time_point start = Clock::now();
        try {
            jr.run = runBody(spec, jr.seed, opts);
            record_attempt(secondsSince(start));
            jr.failed = false;
            jr.error.clear();
            jr.cause = FailureCause::None;
            return jr;
        } catch (const std::exception &e) {
            record_attempt(secondsSince(start));
            jr.failed = true;
            jr.cause = FailureCause::Exception;
            jr.error = e.what();
        } catch (...) {
            record_attempt(secondsSince(start));
            jr.failed = true;
            jr.cause = FailureCause::Exception;
            jr.error = "unknown exception";
        }
    }
    return jr;
}

} // namespace

CampaignReport
runCampaign(const std::vector<JobSpec> &jobs,
            const CampaignOptions &opts)
{
    CampaignReport report;
    report.seed = opts.seed;
    report.jobs.resize(jobs.size());

    unsigned shard_count = std::max(1u, opts.shardCount);
    if (opts.shardIndex >= shard_count) {
        chex_fatal("campaign: shard index %u out of range for %u "
                   "shards",
                   opts.shardIndex, shard_count);
    }
    report.shardIndex = opts.shardIndex;
    report.shardCount = shard_count;

    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    unsigned workers = opts.workers ? opts.workers : hw;
    workers = std::max(1u,
                       std::min<unsigned>(
                           workers, static_cast<unsigned>(
                                        std::max<size_t>(1, jobs.size()))));
    report.workers = workers;

    Clock::time_point campaign_start = Clock::now();

    // Result-cache index over the prior reports: specHash -> prior
    // successful job. Failed/timed-out prior jobs never enter the
    // index (their point must re-run), and specHash 0 marks
    // uncacheable entries (body overrides, pre-v3 reports). The
    // first occurrence wins when reports overlap.
    std::unordered_map<uint64_t, const JobResult *> cache;
    for (const CampaignReport &prior : opts.cacheReports)
        for (const JobResult &pjr : prior.jobs)
            if (!pjr.failed && pjr.specHash)
                cache.emplace(pjr.specHash, &pjr);

    // Emit placeholder rows for out-of-shard jobs and satisfy cache
    // hits up front (submission order, before any worker starts),
    // then queue only the remaining indices. Out-of-shard jobs never
    // consult the cache: each index must be provided by exactly one
    // shard, which is what lets mergeReports reject overlaps.
    std::vector<size_t> to_run;
    to_run.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        JobResult jr = describeJob(jobs[i], i, opts);
        if (i % shard_count != opts.shardIndex) {
            jr.skipped = true;
            report.jobs[i] = std::move(jr);
            continue;
        }
        const JobResult *hit = nullptr;
        if (jr.specHash) {
            auto it = cache.find(jr.specHash);
            // The seed feeds the hash, so the equality check only
            // guards against hash collisions — but a wrong cache hit
            // silently corrupts a figure, so belt and braces.
            if (it != cache.end() && it->second->seed == jr.seed)
                hit = it->second;
        }
        if (!hit) {
            to_run.push_back(i);
            continue;
        }
        jr.cached = true;
        jr.attempts = 0;
        jr.run = hit->run;
        report.jobs[i] = std::move(jr);
        if (opts.onJobDone)
            opts.onJobDone(report.jobs[i]);
    }

    // Lock-guarded work queue of job indices. Results land in
    // pre-sized per-job slots (each index is popped exactly once, so
    // slot writes are unshared). The progress callback serializes on
    // its own lock: a slow onJobDone hook must not stall every other
    // worker's queue pop.
    std::mutex queue_mtx;
    std::mutex done_mtx;
    std::queue<size_t> pending;
    for (size_t i : to_run)
        pending.push(i);

    // One worker process per worker thread; it inherits `jobs` and
    // `opts`, so it needs only job indices. Under isolation the first
    // ones are forked here, before any worker thread exists: no
    // campaign thread can then hold a lock (allocator, static
    // initializer, log) that fork() would copy, held forever, into
    // the child. Only a re-fork after a failed attempt happens while
    // other threads run. Destroying `procs` ends and reaps them all.
    std::deque<WorkerProcess> procs;
    for (unsigned i = 0; i < workers; ++i) {
        procs.emplace_back([&](size_t j) {
            return runBody(jobs[j], effectiveSeed(jobs[j], j, opts), opts);
        });
        if (opts.isolation && i < to_run.size())
            procs.back().start();
    }

    auto worker_fn = [&](WorkerProcess &worker) {
        for (;;) {
            size_t index;
            {
                std::lock_guard<std::mutex> lock(queue_mtx);
                if (pending.empty())
                    return;
                index = pending.front();
                pending.pop();
            }
            report.jobs[index] =
                executeJob(jobs[index], index, opts, worker);
            if (opts.onJobDone) {
                std::lock_guard<std::mutex> lock(done_mtx);
                opts.onJobDone(report.jobs[index]);
            }
        }
    };

    if (workers == 1) {
        worker_fn(procs[0]); // in-caller: easier to debug, nothing to join
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned i = 0; i < workers; ++i)
            pool.emplace_back(worker_fn, std::ref(procs[i]));
        for (std::thread &t : pool)
            t.join();
    }

    summarizeReport(report, secondsSince(campaign_start));
    return report;
}

void
summarizeReport(CampaignReport &report, double wall_seconds)
{
    report.wallSeconds = wall_seconds;
    for (const JobResult &jr : report.jobs) {
        if (jr.skipped) {
            report.jobsSkipped++;
            continue;
        }
        report.jobsRun++;
        report.serialSeconds += jr.wallSeconds;
        if (jr.cached)
            report.jobsCached++;
        if (jr.fromSnapshot)
            report.jobsFromSnapshot++;
        if (jr.failed) {
            report.jobsFailed++;
            continue;
        }
        report.totalCycles += jr.run.cycles;
        report.totalUops += jr.run.uops;
    }
    report.speedup = report.wallSeconds > 0.0
                         ? report.serialSeconds / report.wallSeconds
                         : 0.0;
    report.aggregateIpc =
        report.totalCycles
            ? static_cast<double>(report.totalUops) / report.totalCycles
            : 0.0;
}

std::vector<JobSpec>
buildMatrix(const std::vector<BenchmarkProfile> &profiles,
            const std::vector<VariantKind> &variants,
            uint64_t workload_seed, const SystemConfig &base)
{
    std::vector<JobSpec> jobs;
    jobs.reserve(profiles.size() * variants.size());
    for (const BenchmarkProfile &p : profiles) {
        for (VariantKind kind : variants) {
            JobSpec spec;
            spec.label = p.name + "/" + variantName(kind);
            spec.profile = p;
            spec.config = base;
            spec.config.variant.kind = kind;
            spec.workloadSeed = workload_seed;
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

} // namespace driver
} // namespace chex
