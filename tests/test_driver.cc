/**
 * @file
 * Campaign-driver tests: scheduling-independent determinism (an
 * N-thread campaign reproduces the 1-thread campaign bit for bit),
 * per-job failure isolation and bounded retry, fork-isolated workers
 * (panic/SIGKILL/timeout capture, cross-process result streaming,
 * worker reuse until a failure, idle worker death, reaping),
 * seed derivation, the result cache (spec hashing, hit/miss on
 * spec/seed/scale changes, failed jobs never satisfying, cached
 * bit-identity), campaign sharding (the union of K shards is
 * bit-identical to the unsharded run) and report merging (seed /
 * option / coverage validation), the JSON value type (writer +
 * parser round trip), the campaign report / single-run stats
 * serialization in both directions (the strict reader rejecting
 * every missing or malformed member), snapshot-fanned
 * campaigns (bit-identity vs from-scratch, folded spec hashes
 * keeping cache modes apart), record/replay of report rows
 * (reproduced failure causes, refusal of unreconstructible rows),
 * and the bench env-knob validation.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "base/json.hh"
#include "base/logging.hh"
#include "driver/campaign.hh"
#include "driver/merge.hh"
#include "driver/replay.hh"
#include "driver/report.hh"
#include "driver/spec_hash.hh"
#include "driver/subprocess.hh"
#include "sim/config_hash.hh"
#include "sim/system.hh"
#include "snapshot/snapshot.hh"
#include "workload/generator.hh"
#include "workload/profiles.hh"

#include "../bench/common.hh"

namespace chex
{
namespace
{

/** A tiny profile so each job runs in milliseconds. */
BenchmarkProfile
tinyProfile(const char *name = "tiny")
{
    BenchmarkProfile p;
    p.name = name;
    p.totalAllocations = 40;
    p.maxLiveBuffers = 16;
    p.buffersInUse = 4;
    p.iterations = 400;
    p.scheduleLength = 128;
    return p;
}

/** An 8-job campaign mixing variants and repetitions. */
std::vector<driver::JobSpec>
eightJobs()
{
    const VariantKind kinds[] = {
        VariantKind::Baseline,
        VariantKind::MicrocodePrediction,
        VariantKind::MicrocodeAlwaysOn,
        VariantKind::Asan,
    };
    std::vector<driver::JobSpec> jobs;
    for (unsigned rep = 0; rep < 2; ++rep) {
        for (VariantKind kind : kinds) {
            driver::JobSpec spec;
            spec.label = std::string(variantName(kind)) + "#" +
                         std::to_string(rep);
            spec.profile = tinyProfile();
            spec.config.variant.kind = kind;
            spec.repetition = rep;
            // No pinned seed: derived from (campaign seed, index).
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

TEST(JobSeed, DeterministicNonZeroAndSpread)
{
    EXPECT_EQ(driver::jobSeed(1, 0), driver::jobSeed(1, 0));
    std::set<uint64_t> seen;
    for (size_t i = 0; i < 100; ++i) {
        uint64_t s = driver::jobSeed(42, i);
        EXPECT_NE(s, 0u);
        seen.insert(s);
    }
    EXPECT_EQ(seen.size(), 100u); // no collisions in a small sweep
    EXPECT_NE(driver::jobSeed(1, 0), driver::jobSeed(2, 0));
}

TEST(Campaign, ParallelMatchesSerial)
{
    std::vector<driver::JobSpec> jobs = eightJobs();

    driver::CampaignOptions serial;
    serial.workers = 1;
    serial.seed = 7;
    driver::CampaignReport a = driver::runCampaign(jobs, serial);

    driver::CampaignOptions parallel;
    parallel.workers = 4;
    parallel.seed = 7;
    driver::CampaignReport b = driver::runCampaign(jobs, parallel);

    ASSERT_EQ(a.jobs.size(), jobs.size());
    ASSERT_EQ(b.jobs.size(), jobs.size());
    EXPECT_EQ(a.jobsFailed, 0u);
    EXPECT_EQ(b.jobsFailed, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(a.jobs[i].label);
        EXPECT_EQ(a.jobs[i].seed, b.jobs[i].seed);
        EXPECT_EQ(a.jobs[i].run.cycles, b.jobs[i].run.cycles);
        EXPECT_EQ(a.jobs[i].run.macroOps, b.jobs[i].run.macroOps);
        EXPECT_EQ(a.jobs[i].run.uops, b.jobs[i].run.uops);
        EXPECT_EQ(a.jobs[i].run.violations.size(),
                  b.jobs[i].run.violations.size());
        EXPECT_EQ(a.jobs[i].run.capChecksInjected,
                  b.jobs[i].run.capChecksInjected);
    }
}

TEST(Campaign, DerivedSeedsDifferAcrossRepetitions)
{
    driver::CampaignReport r =
        driver::runCampaign(eightJobs(), {});
    ASSERT_EQ(r.jobs.size(), 8u);
    // Same (profile, variant) point, different repetition => the
    // derived seeds differ, so the generated workloads are
    // statistically independent. (Cycle counts may still coincide
    // on a workload this small, so only the seeds are asserted.)
    EXPECT_NE(r.jobs[0].seed, r.jobs[4].seed);
}

TEST(Campaign, ThrowingJobIsIsolated)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs[3].body = [](const driver::JobSpec &, uint64_t) -> RunResult {
        throw std::runtime_error("injected fault");
    };

    driver::CampaignOptions opts;
    opts.workers = 2;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    EXPECT_EQ(r.jobsRun, jobs.size());
    EXPECT_EQ(r.jobsFailed, 1u);
    EXPECT_TRUE(r.jobs[3].failed);
    EXPECT_EQ(r.jobs[3].error, "injected fault");
    EXPECT_EQ(r.jobs[3].attempts, 1u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (i == 3)
            continue;
        EXPECT_FALSE(r.jobs[i].failed) << i;
        EXPECT_TRUE(r.jobs[i].run.exited) << i;
    }
}

TEST(Campaign, BoundedRetryRecovers)
{
    auto flaky_failures = std::make_shared<std::atomic<int>>(2);
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs[1].body = [flaky_failures](const driver::JobSpec &spec,
                                    uint64_t seed) -> RunResult {
        if (flaky_failures->fetch_sub(1) > 0)
            throw std::runtime_error("transient");
        System sys(spec.config);
        sys.load(generateWorkload(spec.profile, seed));
        return sys.run();
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.maxAttempts = 3;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    EXPECT_EQ(r.jobsFailed, 0u);
    EXPECT_EQ(r.jobs[1].attempts, 3u);
    EXPECT_TRUE(r.jobs[1].run.exited);
    EXPECT_EQ(r.jobs[0].attempts, 1u);
}

TEST(Campaign, WallSecondsAccumulateAcrossAttempts)
{
    auto failures = std::make_shared<std::atomic<int>>(2);
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(2);
    jobs[1].body = [failures](const driver::JobSpec &spec,
                              uint64_t seed) -> RunResult {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (failures->fetch_sub(1) > 0)
            throw std::runtime_error("transient");
        System sys(spec.config);
        sys.load(generateWorkload(spec.profile, seed));
        return sys.run();
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.maxAttempts = 3;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    ASSERT_FALSE(r.jobs[1].failed);
    EXPECT_EQ(r.jobs[1].attempts, 3u);
    ASSERT_EQ(r.jobs[1].attemptSeconds.size(), 3u);
    // The reported wall time is the whole cost of the job — the sum
    // of every attempt, not just the final (successful) one.
    double sum = 0.0;
    for (double s : r.jobs[1].attemptSeconds) {
        EXPECT_GE(s, 0.01);
        sum += s;
    }
    EXPECT_DOUBLE_EQ(r.jobs[1].wallSeconds, sum);
    EXPECT_GE(r.jobs[1].wallSeconds, 0.03);
    ASSERT_EQ(r.jobs[0].attemptSeconds.size(), 1u);
    EXPECT_DOUBLE_EQ(r.jobs[0].wallSeconds,
                     r.jobs[0].attemptSeconds[0]);
}

TEST(Campaign, SummaryAggregates)
{
    driver::CampaignReport r =
        driver::runCampaign(eightJobs(), {});
    EXPECT_EQ(r.jobsRun, 8u);
    EXPECT_EQ(r.jobsFailed, 0u);
    EXPECT_GT(r.totalCycles, 0u);
    EXPECT_GT(r.totalUops, 0u);
    EXPECT_GT(r.aggregateIpc, 0.0);
    EXPECT_GT(r.wallSeconds, 0.0);
    EXPECT_GE(r.serialSeconds, 0.0);
}

TEST(Isolation, PanicIsCapturedAsSignalWhileSiblingsComplete)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs[2].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        chex_panic("deliberate test panic"); // aborts the child
    };

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.isolation = true;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    EXPECT_EQ(r.jobsRun, jobs.size());
    EXPECT_EQ(r.jobsFailed, 1u);
    ASSERT_TRUE(r.jobs[2].failed);
    EXPECT_EQ(r.jobs[2].cause, driver::FailureCause::Signal);
    EXPECT_EQ(r.jobs[2].termSignal, SIGABRT);
    EXPECT_EQ(r.jobs[2].exitCode, 0);
    EXPECT_NE(r.jobs[2].error.find("signal"), std::string::npos)
        << r.jobs[2].error;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (i == 2)
            continue;
        EXPECT_FALSE(r.jobs[i].failed) << i;
        EXPECT_TRUE(r.jobs[i].run.exited) << i;
    }
}

TEST(Isolation, WatchdogKillsStuckJobAndRetries)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(3);
    jobs[0].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        for (;;) // never hits any cap; only the watchdog ends this
            std::this_thread::sleep_for(std::chrono::seconds(1));
    };

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.isolation = true;
    opts.timeoutSeconds = 0.2;
    opts.maxAttempts = 2; // timeouts participate in bounded retry
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    ASSERT_TRUE(r.jobs[0].failed);
    EXPECT_EQ(r.jobs[0].cause, driver::FailureCause::Timeout);
    EXPECT_EQ(r.jobs[0].termSignal, SIGKILL);
    EXPECT_EQ(r.jobs[0].exitCode, 0);
    EXPECT_EQ(r.jobs[0].attempts, 2u);
    ASSERT_EQ(r.jobs[0].attemptSeconds.size(), 2u);
    for (double s : r.jobs[0].attemptSeconds)
        EXPECT_GE(s, 0.2);
    EXPECT_FALSE(r.jobs[1].failed);
    EXPECT_FALSE(r.jobs[2].failed);
}

TEST(Isolation, PanicAndHangInOneCampaignMatchInProcessElsewhere)
{
    // The acceptance scenario: one campaign holding a panicking job
    // AND a never-terminating job completes under isolation, marks
    // exactly those two failed with causes signal and timeout, and
    // every other job is bit-identical to an in-process run of the
    // same campaign seed.
    std::vector<driver::JobSpec> jobs = eightJobs();

    driver::CampaignOptions in_process;
    in_process.workers = 1;
    in_process.seed = 21;
    driver::CampaignReport ref = driver::runCampaign(jobs, in_process);
    ASSERT_EQ(ref.jobsFailed, 0u);

    jobs[1].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        chex_panic("deliberate test panic");
    };
    jobs[5].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    };

    driver::CampaignOptions isolated;
    isolated.workers = 3;
    isolated.seed = 21;
    isolated.isolation = true;
    isolated.timeoutSeconds = 0.3;
    driver::CampaignReport r = driver::runCampaign(jobs, isolated);

    EXPECT_EQ(r.jobsRun, jobs.size());
    EXPECT_EQ(r.jobsFailed, 2u);
    ASSERT_TRUE(r.jobs[1].failed);
    EXPECT_EQ(r.jobs[1].cause, driver::FailureCause::Signal);
    ASSERT_TRUE(r.jobs[5].failed);
    EXPECT_EQ(r.jobs[5].cause, driver::FailureCause::Timeout);
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (i == 1 || i == 5)
            continue;
        SCOPED_TRACE(ref.jobs[i].label);
        EXPECT_FALSE(r.jobs[i].failed);
        EXPECT_EQ(r.jobs[i].seed, ref.jobs[i].seed);
        EXPECT_EQ(r.jobs[i].run.cycles, ref.jobs[i].run.cycles);
        EXPECT_EQ(r.jobs[i].run.uops, ref.jobs[i].run.uops);
        EXPECT_EQ(r.jobs[i].run.macroOps, ref.jobs[i].run.macroOps);
        EXPECT_DOUBLE_EQ(r.jobs[i].run.ipc, ref.jobs[i].run.ipc);
    }
}

TEST(Isolation, ExceptionCrossesTheProcessBoundary)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(2);
    jobs[1].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        throw std::runtime_error("thrown in the child");
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.isolation = true;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    ASSERT_TRUE(r.jobs[1].failed);
    EXPECT_EQ(r.jobs[1].cause, driver::FailureCause::Exception);
    EXPECT_EQ(r.jobs[1].error, "thrown in the child");
    EXPECT_FALSE(r.jobs[0].failed);
}

TEST(Isolation, NonzeroExitIsCaptured)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(2);
    jobs[0].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        ::_exit(7); // child vanishes without reporting a result
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.isolation = true;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    ASSERT_TRUE(r.jobs[0].failed);
    EXPECT_EQ(r.jobs[0].cause, driver::FailureCause::NonzeroExit);
    EXPECT_EQ(r.jobs[0].exitCode, 7);
    EXPECT_EQ(r.jobs[0].termSignal, 0);
    EXPECT_FALSE(r.jobs[1].failed);
}

TEST(Isolation, MatchesInProcessBitForBit)
{
    std::vector<driver::JobSpec> jobs = eightJobs();

    driver::CampaignOptions in_process;
    in_process.workers = 1;
    in_process.seed = 7;
    driver::CampaignReport a = driver::runCampaign(jobs, in_process);

    driver::CampaignOptions isolated;
    isolated.workers = 3;
    isolated.seed = 7;
    isolated.isolation = true;
    isolated.timeoutSeconds = 120.0;
    driver::CampaignReport b = driver::runCampaign(jobs, isolated);

    EXPECT_EQ(a.jobsFailed, 0u);
    EXPECT_EQ(b.jobsFailed, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(a.jobs[i].label);
        EXPECT_EQ(a.jobs[i].seed, b.jobs[i].seed);
        EXPECT_EQ(a.jobs[i].run.cycles, b.jobs[i].run.cycles);
        EXPECT_EQ(a.jobs[i].run.macroOps, b.jobs[i].run.macroOps);
        EXPECT_EQ(a.jobs[i].run.uops, b.jobs[i].run.uops);
        EXPECT_DOUBLE_EQ(a.jobs[i].run.ipc, b.jobs[i].run.ipc);
        EXPECT_EQ(a.jobs[i].run.capChecksInjected,
                  b.jobs[i].run.capChecksInjected);
        EXPECT_EQ(a.jobs[i].run.violations.size(),
                  b.jobs[i].run.violations.size());
        EXPECT_EQ(a.jobs[i].run.dramBytes, b.jobs[i].run.dramBytes);
        EXPECT_DOUBLE_EQ(a.jobs[i].run.capCacheMissRate,
                         b.jobs[i].run.capCacheMissRate);
    }
}

/** A result that records which process produced it, in `cycles`. */
RunResult
pidResult()
{
    RunResult r;
    r.exited = true;
    r.cycles = static_cast<uint64_t>(::getpid());
    return r;
}

using Body = std::function<RunResult(const driver::JobSpec &, uint64_t)>;

/**
 * A body whose first attempt leaves its pid in the file @p marker and
 * then fails through @p fail; a retry returns pidResult() with the
 * failed attempt's pid in `macroOps`.
 */
Body
failsOnce(const std::string &marker, std::function<void()> fail)
{
    std::remove(marker.c_str());
    return [marker, fail](const driver::JobSpec &, uint64_t) {
        uint64_t first = 0;
        if (!(std::ifstream(marker) >> first)) {
            std::ofstream(marker) << ::getpid();
            fail();
        }
        RunResult r = pidResult();
        r.macroOps = first;
        return r;
    };
}

/** True when the calling process has no child left, reaped or not. */
bool
noChildLeft()
{
    errno = 0;
    return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

TEST(Isolation, WorkerIsReusedUntilAnAttemptFails)
{
    const std::string dir = ::testing::TempDir();
    const std::vector<Body> bodies = {
        [](const driver::JobSpec &, uint64_t) { return pidResult(); },
        [](const driver::JobSpec &, uint64_t) { return pidResult(); },
        failsOnce(dir + "chex_fail_exception", [] {
            throw std::runtime_error("first attempt throws");
        }),
        failsOnce(dir + "chex_fail_panic",
                  [] { chex_panic("first attempt panics"); }),
        failsOnce(dir + "chex_fail_hang", [] {
            for (;;)
                std::this_thread::sleep_for(std::chrono::seconds(1));
        }),
        failsOnce(dir + "chex_fail_exit", [] { ::_exit(7); }),
        [](const driver::JobSpec &, uint64_t) { return pidResult(); },
    };
    std::vector<driver::JobSpec> jobs(bodies.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].label = "job" + std::to_string(i);
        jobs[i].body = bodies[i];
    }

    driver::CampaignOptions opts;
    opts.workers = 1; // one worker thread, so one worker at a time
    opts.isolation = true;
    opts.timeoutSeconds = 0.5;
    opts.maxAttempts = 2;
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    ASSERT_EQ(r.jobsFailed, 0u);
    auto pid = [&](size_t i) { return r.jobs[i].run.cycles; };
    // Consecutive successes share one worker process.
    EXPECT_EQ(r.jobs[0].attempts, 1u);
    EXPECT_EQ(r.jobs[1].attempts, 1u);
    EXPECT_EQ(pid(0), pid(1));
    EXPECT_NE(pid(0), static_cast<uint64_t>(::getpid()));
    // Each failure kind ran in the worker the previous job left, and
    // retired it: the retry ran in a fresh one, which the next job
    // then reuses.
    for (size_t i = 2; i <= 5; ++i) {
        SCOPED_TRACE(jobs[i].label);
        EXPECT_EQ(r.jobs[i].attempts, 2u);
        EXPECT_EQ(r.jobs[i].run.macroOps, pid(i - 1));
        EXPECT_NE(pid(i), pid(i - 1));
    }
    EXPECT_EQ(pid(6), pid(5));
    // Every worker was reaped before runCampaign returned.
    EXPECT_TRUE(noChildLeft());
}

TEST(Isolation, WorkerDeathWhileIdleCostsNoAttempt)
{
    std::vector<driver::JobSpec> jobs(2);
    jobs[0].body = [](const driver::JobSpec &, uint64_t) {
        ::alarm(1); // SIGALRM ends this worker while it waits
        return pidResult();
    };
    jobs[1].body = [](const driver::JobSpec &, uint64_t) {
        return pidResult();
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.isolation = true;
    opts.onJobDone = [](const driver::JobResult &jr) {
        if (jr.index == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    };
    // Sending job 1 to the dead worker must not raise SIGPIPE here.
    driver::CampaignReport r = driver::runCampaign(jobs, opts);

    ASSERT_FALSE(r.jobs[0].failed);
    ASSERT_FALSE(r.jobs[1].failed) << r.jobs[1].error;
    EXPECT_EQ(r.jobs[1].attempts, 1u);
    EXPECT_NE(r.jobs[1].run.cycles, r.jobs[0].run.cycles);
    EXPECT_TRUE(noChildLeft());
}

/** The number of sockets the calling process has open. */
uint64_t
openSockets()
{
    uint64_t n = 0;
    for (const auto &fd :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        std::error_code ec;
        std::string target = std::filesystem::read_symlink(fd, ec);
        n += target.rfind("socket:", 0) == 0;
    }
    return n;
}

TEST(Isolation, WorkerHoldsNoSiblingChannel)
{
    // Each worker reports the sockets it has open: only its own end
    // of its channel beyond what the campaign process already had,
    // never the parent end of a sibling forked before it.
    auto sockets = [](size_t) {
        RunResult r = pidResult();
        r.cycles = openSockets();
        return r;
    };
    const uint64_t inherited = openSockets();
    driver::WorkerProcess first(sockets);
    driver::WorkerProcess second(sockets);
    driver::AttemptOutcome a = first.run(0, 0.0);
    driver::AttemptOutcome b = second.run(0, 0.0);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.run.cycles, inherited + 1);
    EXPECT_EQ(b.run.cycles, inherited + 1);
}

TEST(Json, WriteParseRoundTrip)
{
    json::Value v = json::Value::object()
                        .set("int", uint64_t(1234567890123ull))
                        .set("neg", -3.5)
                        .set("flag", true)
                        .set("none", json::Value())
                        .set("text", "line\n\"quoted\"\ttab")
                        .set("arr", json::Value::array()
                                        .push(1)
                                        .push("two")
                                        .push(false));
    std::string text = v.dump(2);

    json::Value back;
    std::string err;
    ASSERT_TRUE(json::Value::parse(text, back, &err)) << err;
    EXPECT_EQ(back.at("int").number(), 1234567890123.0);
    EXPECT_EQ(back.at("neg").number(), -3.5);
    EXPECT_TRUE(back.at("flag").boolean());
    EXPECT_TRUE(back.at("none").isNull());
    EXPECT_EQ(back.at("text").str(), "line\n\"quoted\"\ttab");
    ASSERT_EQ(back.at("arr").size(), 3u);
    EXPECT_EQ(back.at("arr").at(size_t(1)).str(), "two");
    // Canonical re-dump is stable.
    EXPECT_EQ(back.dump(2), text);
}

TEST(Json, Uint64RoundTripsExactly)
{
    // Values above 2^53 (e.g. derived seeds) must not be flattened
    // through a double on the way to disk or back.
    const uint64_t big = 10451216379200823296ull;
    json::Value v = json::Value::object().set("seed", big);
    std::string text = v.dump();
    EXPECT_NE(text.find("10451216379200823296"), std::string::npos)
        << text;

    json::Value back;
    ASSERT_TRUE(json::Value::parse(text, back, nullptr));
    EXPECT_EQ(back.at("seed").asUint64(), big);
}

TEST(Json, IntConstructionIsExact)
{
    // int-constructed non-negative numbers carry the exact-uint flag
    // just like uint64_t-constructed ones, so asUint64() never
    // detours through the double approximation.
    EXPECT_EQ(json::Value(42).dump(), "42");
    EXPECT_EQ(json::Value(42).asUint64(), 42u);
    EXPECT_EQ(json::Value(0).asUint64(), 0u);
    EXPECT_EQ(json::Value(int64_t(99)).asUint64(), 99u);
    EXPECT_EQ(json::Value(-3).dump(), "-3");
    EXPECT_EQ(json::Value(-3).number(), -3.0);
}

TEST(Json, Uint64MaxRoundTrips)
{
    const uint64_t max = UINT64_MAX;
    json::Value v = json::Value::object().set("m", max);
    std::string text = v.dump();
    EXPECT_NE(text.find("18446744073709551615"), std::string::npos)
        << text;

    json::Value back;
    ASSERT_TRUE(json::Value::parse(text, back, nullptr));
    EXPECT_EQ(back.at("m").asUint64(), max);
    // And the canonical re-dump keeps the exact digits.
    EXPECT_EQ(back.dump(), text);
}

TEST(Json, ParserRejectsMalformed)
{
    json::Value out;
    EXPECT_FALSE(json::Value::parse("{", out));
    EXPECT_FALSE(json::Value::parse("[1,]", out));
    EXPECT_FALSE(json::Value::parse("{\"a\":1} trailing", out));
    EXPECT_FALSE(json::Value::parse("\"unterminated", out));
    EXPECT_TRUE(json::Value::parse(" [ ] ", out));
    EXPECT_TRUE(json::Value::parse("{\"u\":\"\\u0041\"}", out));
    EXPECT_EQ(out.at("u").str(), "A");

    // Numbers follow the RFC 8259 grammar and must fit a double; the
    // error names the byte where the number goes wrong.
    std::string err;
    for (const char *bad :
         {"+1", "01", "-01", "00", ".5", "1.", "-.5", "1.e5", "1e", "1e+",
          "-", "--1", "0x10", "Infinity", "-Infinity", "NaN", "[01]",
          "1e400", "-1e400", "1e-400"}) {
        SCOPED_TRACE(bad);
        err.clear();
        EXPECT_FALSE(json::Value::parse(bad, out, &err));
        EXPECT_NE(err.find(" at byte "), std::string::npos) << err;
    }
    EXPECT_FALSE(json::Value::parse("[1,1e400]", out, &err));
    EXPECT_EQ(err, "json: number out of double range at byte 3");
    EXPECT_FALSE(json::Value::parse("[01]", out, &err));
    EXPECT_EQ(err, "json: leading zero in number at byte 2");
    for (const char *good :
         {"0", "-0", "1.5e-3", "1E+2", "-0.0e0", "4.9406564584124654e-324",
          "18446744073709551616", "1.7976931348623157e308"}) {
        SCOPED_TRACE(good);
        EXPECT_TRUE(json::Value::parse(good, out, &err)) << err;
    }
    ASSERT_TRUE(json::Value::parse("18446744073709551615", out));
    EXPECT_TRUE(out.isUint64());
    ASSERT_TRUE(json::Value::parse("18446744073709551616", out));
    EXPECT_FALSE(out.isUint64());
    EXPECT_EQ(out.number(), 18446744073709551616.0);
    ASSERT_TRUE(json::Value::parse("-0", out));
    EXPECT_TRUE(std::signbit(out.number()));

    // A key may appear once per object, small or large.
    EXPECT_FALSE(json::Value::parse("{\"a\":1,\"a\":2}", out, &err));
    EXPECT_EQ(err, "json: repeated key \"a\" in object at byte 0");
    std::string wide = "{";
    for (int i = 0; i < 40; ++i)
        wide += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    EXPECT_TRUE(json::Value::parse(wide + "\"k40\":0}", out, &err)) << err;
    EXPECT_FALSE(json::Value::parse("[" + wide + "\"k7\":0}]", out, &err));
    EXPECT_EQ(err, "json: repeated key \"k7\" in object at byte 1");
    EXPECT_TRUE(json::Value::parse("{\"a\":{\"a\":1},\"b\":{\"a\":2}}", out));

    // Strings hold no raw control bytes and no surrogate escapes; the
    // writer escapes the first and never emits the second.
    EXPECT_FALSE(json::Value::parse("\"a\tb\"", out, &err));
    EXPECT_EQ(err, "json: control character in string at byte 2");
    EXPECT_FALSE(json::Value::parse(std::string("\"\0\"", 3), out));
    EXPECT_FALSE(json::Value::parse("\"\x1f\"", out));
    EXPECT_FALSE(json::Value::parse("[\"\\ud800\"]", out, &err));
    EXPECT_EQ(err, "json: surrogate \\u escape at byte 2");
    EXPECT_FALSE(json::Value::parse("\"\\uDFFF\"", out));
    EXPECT_FALSE(json::Value::parse("\"\\ud83d\\ude00\"", out));
    ASSERT_TRUE(json::Value::parse("\"\\t\\u001f\\ud7ff\\ue000\x7f\"", out));
    EXPECT_EQ(out.str(), "\t\x1f\xed\x9f\xbf\xee\x80\x80\x7f");

    // Nesting is bounded, so a hostile document cannot exhaust the
    // stack.
    EXPECT_TRUE(json::Value::parse(std::string(512, '[') +
                                       std::string(512, ']'),
                                   out, &err))
        << err;
    EXPECT_FALSE(json::Value::parse(std::string(100000, '['), out, &err));
    EXPECT_EQ(err, "json: nesting too deep at byte 512");
}

TEST(Report, CampaignJsonRoundTrips)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs[5].body = [](const driver::JobSpec &, uint64_t) -> RunResult {
        throw std::runtime_error("boom");
    };
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 11;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);

    std::ostringstream ss;
    driver::writeReport(report, ss);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;

    EXPECT_EQ(doc.at("schema").str(), "chex-campaign-report-v7");
    EXPECT_EQ(doc.at("seed").number(), 11.0);
    // An unsharded campaign is shard 0 of 1 with nothing skipped.
    EXPECT_EQ(doc.at("shard").at("index").number(), 0.0);
    EXPECT_EQ(doc.at("shard").at("count").number(), 1.0);
    const json::Value &summary = doc.at("summary");
    EXPECT_EQ(summary.at("jobsRun").number(), 8.0);
    EXPECT_EQ(summary.at("jobsFailed").number(), 1.0);
    EXPECT_EQ(summary.at("jobsCached").number(), 0.0);
    EXPECT_EQ(summary.at("jobsSkipped").number(), 0.0);

    const json::Value &jarr = doc.at("jobs");
    ASSERT_EQ(jarr.size(), 8u);
    for (size_t i = 0; i < jarr.size(); ++i) {
        const json::Value &job = jarr.at(i);
        EXPECT_EQ(job.at("index").number(), double(i));
        EXPECT_FALSE(job.at("cached").boolean());
        // Body-override jobs (index 5) are uncacheable: specHash 0.
        EXPECT_EQ(job.at("specHash").str(),
                  i == 5 ? "0000000000000000"
                         : driver::specHashHex(report.jobs[i].specHash));
        if (i == 5) {
            EXPECT_EQ(job.at("status").str(), "failed");
            EXPECT_EQ(job.at("error").str(), "boom");
            EXPECT_EQ(job.find("result"), nullptr);
            EXPECT_EQ(job.at("cause").str(), "exception");
            EXPECT_EQ(job.at("exitCode").number(), 0.0);
            EXPECT_EQ(job.at("signal").number(), 0.0);
        } else {
            EXPECT_EQ(job.at("status").str(), "ok");
            const json::Value &res = job.at("result");
            EXPECT_EQ(res.at("cycles").number(),
                      double(report.jobs[i].run.cycles));
            EXPECT_EQ(res.at("uops").number(),
                      double(report.jobs[i].run.uops));
            EXPECT_TRUE(res.at("exited").boolean());
            EXPECT_TRUE(res.at("violations").isArray());
        }
    }
}

TEST(Report, V5RoundTripsThroughFromJson)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(4);
    jobs[2].body = [](const driver::JobSpec &,
                      uint64_t) -> RunResult {
        throw std::runtime_error("boom");
    };
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 13;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);

    std::ostringstream ss;
    driver::writeReport(report, ss);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str(), "chex-campaign-report-v7");

    driver::CampaignReport back;
    ASSERT_TRUE(driver::fromJson(doc, back, &err)) << err;
    EXPECT_EQ(back.seed, report.seed);
    EXPECT_EQ(back.workers, report.workers);
    EXPECT_EQ(back.shardIndex, 0u);
    EXPECT_EQ(back.shardCount, 1u);
    EXPECT_EQ(back.jobsSkipped, 0u);
    EXPECT_EQ(back.jobsRun, report.jobsRun);
    EXPECT_EQ(back.jobsFailed, 1u);
    EXPECT_EQ(back.jobsCached, 0u);
    EXPECT_EQ(back.totalCycles, report.totalCycles);
    EXPECT_EQ(back.totalUops, report.totalUops);
    ASSERT_EQ(back.jobs.size(), report.jobs.size());
    for (size_t i = 0; i < back.jobs.size(); ++i) {
        SCOPED_TRACE(report.jobs[i].label);
        EXPECT_EQ(back.jobs[i].label, report.jobs[i].label);
        EXPECT_EQ(back.jobs[i].seed, report.jobs[i].seed);
        EXPECT_EQ(back.jobs[i].specHash, report.jobs[i].specHash);
        EXPECT_EQ(back.jobs[i].cached, report.jobs[i].cached);
        EXPECT_EQ(back.jobs[i].skipped, report.jobs[i].skipped);
        EXPECT_EQ(back.jobs[i].failed, report.jobs[i].failed);
        EXPECT_EQ(back.jobs[i].cause, report.jobs[i].cause);
        EXPECT_EQ(back.jobs[i].exitCode, report.jobs[i].exitCode);
        EXPECT_EQ(back.jobs[i].termSignal,
                  report.jobs[i].termSignal);
        EXPECT_EQ(back.jobs[i].attempts, report.jobs[i].attempts);
        EXPECT_EQ(back.jobs[i].attemptSeconds.size(),
                  report.jobs[i].attemptSeconds.size());
        if (report.jobs[i].failed) {
            EXPECT_EQ(back.jobs[i].error, report.jobs[i].error);
        } else {
            EXPECT_EQ(back.jobs[i].run.cycles,
                      report.jobs[i].run.cycles);
            EXPECT_EQ(back.jobs[i].run.uops, report.jobs[i].run.uops);
            EXPECT_DOUBLE_EQ(back.jobs[i].run.ipc,
                             report.jobs[i].run.ipc);
            EXPECT_EQ(back.jobs[i].run.exited,
                      report.jobs[i].run.exited);
        }
    }
}

TEST(Report, FromJsonRejectsUnknownSchema)
{
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(
        R"({"schema": "chex-campaign-report-v9", "jobs": []})", doc,
        nullptr));
    driver::CampaignReport report;
    std::string err;
    EXPECT_FALSE(driver::fromJson(doc, report, &err));
    EXPECT_NE(err.find("schema"), std::string::npos) << err;
}

TEST(SpecHash, DeterministicAndSensitiveToEveryInput)
{
    driver::JobSpec a;
    a.profile = tinyProfile();
    uint64_t h = driver::specHash(a, 42);
    EXPECT_NE(h, 0u); // 0 is the uncacheable sentinel
    EXPECT_EQ(h, driver::specHash(a, 42));
    EXPECT_NE(h, driver::specHash(a, 43)); // seed feeds the hash

    driver::JobSpec b = a;
    b.profile.iterations += 1;
    EXPECT_NE(driver::specHash(b, 42), h);

    driver::JobSpec c = a;
    c.config.variant.kind = VariantKind::Asan;
    EXPECT_NE(driver::specHash(c, 42), h);

    driver::JobSpec d = a;
    d.config.capCacheEntries *= 2;
    EXPECT_NE(driver::specHash(d, 42), h);

    driver::JobSpec e = a;
    e.config.aliasPredictor.entries *= 2;
    EXPECT_NE(driver::specHash(e, 42), h);

    // Positional/cosmetic fields do not participate: the same point
    // hashes identically no matter where it sits in the job list.
    driver::JobSpec f = a;
    f.label = "renamed";
    f.repetition = 5;
    EXPECT_EQ(driver::specHash(f, 42), h);
}

TEST(SpecHash, ByteStreamIsPinned)
{
    // Literal digests of the hash byte streams. Any change to the
    // encoding (a field added, dropped, renamed or reordered) moves
    // them, and with them every cache key and snapshot config pin,
    // so it must be a deliberate one.
    driver::JobSpec workload;
    workload.profile = profileByName("mcf");
    EXPECT_EQ(driver::specHashHex(driver::specHash(workload, 1)),
              "6f620a4666ddbe1a");

    driver::JobSpec attack;
    attack.attack = "how2heap/fastbin_dup";
    attack.profile = attackProfile();
    attack.config.variant.kind = VariantKind::MicrocodePrediction;
    EXPECT_EQ(driver::specHashHex(driver::specHash(attack, 1)),
              "23fb46944990a271");

    EXPECT_EQ(driver::specHashHex(configHash(SystemConfig{})),
              "8050d784013a30c1");
}

TEST(SpecHash, HexRoundTrips)
{
    const uint64_t h = 0xdeadbeef01234567ull;
    std::string hex = driver::specHashHex(h);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(driver::specHashFromHex(hex), h);
    EXPECT_EQ(driver::specHashHex(0), "0000000000000000");
    // Malformed hex parses to the uncacheable sentinel, not garbage.
    EXPECT_EQ(driver::specHashFromHex(""), 0u);
    EXPECT_EQ(driver::specHashFromHex("zz"), 0u);
    EXPECT_EQ(driver::specHashFromHex("123"), 0u);
}

TEST(Cache, SecondRunIsFullySatisfiedAndBitIdentical)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 5;
    driver::CampaignReport first = driver::runCampaign(jobs, opts);
    ASSERT_EQ(first.jobsFailed, 0u);
    EXPECT_EQ(first.jobsCached, 0u);

    // Round-trip the prior report through JSON exactly like a real
    // --cache file would travel.
    std::ostringstream ss;
    driver::writeReport(first, ss);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    driver::CampaignReport prior;
    ASSERT_TRUE(driver::fromJson(doc, prior, &err)) << err;

    driver::CampaignOptions cached = opts;
    cached.cacheReports.push_back(prior);
    size_t done_calls = 0;
    cached.onJobDone = [&](const driver::JobResult &jr) {
        EXPECT_TRUE(jr.cached);
        ++done_calls;
    };
    driver::CampaignReport second = driver::runCampaign(jobs, cached);

    EXPECT_EQ(second.jobsCached, jobs.size());
    EXPECT_EQ(second.jobsFailed, 0u);
    EXPECT_EQ(done_calls, jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(first.jobs[i].label);
        EXPECT_TRUE(second.jobs[i].cached);
        EXPECT_EQ(second.jobs[i].attempts, 0u);
        EXPECT_DOUBLE_EQ(second.jobs[i].wallSeconds, 0.0);
        EXPECT_EQ(second.jobs[i].seed, first.jobs[i].seed);
        EXPECT_EQ(second.jobs[i].specHash, first.jobs[i].specHash);
        EXPECT_EQ(second.jobs[i].run.cycles, first.jobs[i].run.cycles);
        EXPECT_EQ(second.jobs[i].run.uops, first.jobs[i].run.uops);
        EXPECT_EQ(second.jobs[i].run.macroOps,
                  first.jobs[i].run.macroOps);
        EXPECT_DOUBLE_EQ(second.jobs[i].run.ipc,
                         first.jobs[i].run.ipc);
        EXPECT_EQ(second.jobs[i].run.capChecksInjected,
                  first.jobs[i].run.capChecksInjected);
    }
}

TEST(Cache, MissesOnSpecSeedAndScaleChanges)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 5;
    driver::CampaignReport first = driver::runCampaign(jobs, opts);
    ASSERT_EQ(first.jobsFailed, 0u);

    driver::CampaignOptions with_cache = opts;
    with_cache.cacheReports.push_back(first);

    // A profile-parameter change invalidates every hit.
    std::vector<driver::JobSpec> tweaked = jobs;
    for (driver::JobSpec &j : tweaked)
        j.profile.iterations += 100;
    driver::CampaignReport r1 =
        driver::runCampaign(tweaked, with_cache);
    EXPECT_EQ(r1.jobsCached, 0u);

    // A different campaign seed derives different workload seeds.
    driver::CampaignOptions reseeded = with_cache;
    reseeded.seed = 6;
    driver::CampaignReport r2 = driver::runCampaign(jobs, reseeded);
    EXPECT_EQ(r2.jobsCached, 0u);

    // A scale change (what CHEX_BENCH_SCALE does to a matrix)
    // rewrites the iteration counts, so nothing matches either.
    std::vector<driver::JobSpec> scaled = jobs;
    for (driver::JobSpec &j : scaled)
        j.profile = j.profile.scaledBy(2);
    ASSERT_NE(scaled[0].profile.iterations,
              jobs[0].profile.iterations);
    driver::CampaignReport r3 =
        driver::runCampaign(scaled, with_cache);
    EXPECT_EQ(r3.jobsCached, 0u);
}

TEST(Cache, FailedPriorJobsNeverSatisfy)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(2);
    // A default-body job that fails deterministically: the macro-op
    // cap ends the run before the workload can exit, which runSpec
    // reports as an error. Its spec still hashes (no body override),
    // so this exercises the failed-entries-stay-out rule rather than
    // the uncacheable-sentinel path.
    jobs[1].config.maxMacroOps = 10;

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.seed = 9;
    driver::CampaignReport first = driver::runCampaign(jobs, opts);
    ASSERT_EQ(first.jobsFailed, 1u);
    ASSERT_TRUE(first.jobs[1].failed);
    EXPECT_NE(first.jobs[1].specHash, 0u);

    driver::CampaignOptions with_cache = opts;
    with_cache.cacheReports.push_back(first);
    driver::CampaignReport second =
        driver::runCampaign(jobs, with_cache);

    EXPECT_TRUE(second.jobs[0].cached);
    EXPECT_FALSE(second.jobs[1].cached);
    EXPECT_EQ(second.jobs[1].attempts, 1u);
    EXPECT_TRUE(second.jobs[1].failed); // re-ran, failed again
    EXPECT_EQ(second.jobsCached, 1u);
}

TEST(Cache, BodyOverrideJobsNeverHitTheCache)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    jobs.resize(2);
    // The body computes exactly what the default would, but the
    // driver cannot know that: a std::function's content is opaque,
    // so the job must be uncacheable in both directions.
    jobs[1].body = [](const driver::JobSpec &spec,
                      uint64_t seed) -> RunResult {
        System sys(spec.config);
        sys.load(generateWorkload(spec.profile, seed));
        return sys.run();
    };

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.seed = 5;
    driver::CampaignReport first = driver::runCampaign(jobs, opts);
    ASSERT_EQ(first.jobsFailed, 0u);
    EXPECT_EQ(first.jobs[1].specHash, 0u);

    driver::CampaignOptions with_cache = opts;
    with_cache.cacheReports.push_back(first);
    driver::CampaignReport second =
        driver::runCampaign(jobs, with_cache);

    EXPECT_TRUE(second.jobs[0].cached);
    EXPECT_FALSE(second.jobs[1].cached);
    EXPECT_EQ(second.jobs[1].attempts, 1u);
    EXPECT_EQ(second.jobsCached, 1u);
}

/** Run eightJobs() as @p count shards and return the shard reports. */
std::vector<driver::CampaignReport>
runSharded(const std::vector<driver::JobSpec> &jobs, unsigned count,
           uint64_t seed)
{
    std::vector<driver::CampaignReport> shards;
    for (unsigned i = 0; i < count; ++i) {
        driver::CampaignOptions opts;
        opts.workers = 2;
        opts.seed = seed;
        opts.shardIndex = i;
        opts.shardCount = count;
        shards.push_back(driver::runCampaign(jobs, opts));
    }
    return shards;
}

TEST(Shard, OutOfShardJobsBecomeSkippedPlaceholders)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 7;
    opts.shardIndex = 1;
    opts.shardCount = 2;
    size_t done_calls = 0;
    opts.onJobDone = [&](const driver::JobResult &jr) {
        EXPECT_FALSE(jr.skipped); // placeholders never reach the hook
        ++done_calls;
    };
    driver::CampaignReport report = driver::runCampaign(jobs, opts);

    EXPECT_EQ(report.shardIndex, 1u);
    EXPECT_EQ(report.shardCount, 2u);
    EXPECT_EQ(report.jobsSkipped, 4u);
    EXPECT_EQ(report.jobsRun, 4u);
    EXPECT_EQ(done_calls, 4u);
    ASSERT_EQ(report.jobs.size(), jobs.size());
    for (size_t i = 0; i < report.jobs.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(report.jobs[i].index, i);
        EXPECT_EQ(report.jobs[i].skipped, i % 2 != 1);
        if (report.jobs[i].skipped) {
            // Identity fields survive for merge validation; nothing
            // was simulated.
            EXPECT_EQ(report.jobs[i].label, jobs[i].label);
            EXPECT_NE(report.jobs[i].seed, 0u);
            EXPECT_EQ(report.jobs[i].attempts, 0u);
            EXPECT_FALSE(report.jobs[i].cached);
            EXPECT_EQ(report.jobs[i].run.cycles, 0u);
        }
    }
}

TEST(Shard, UnionOfShardsIsBitIdenticalToUnsharded)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 7;
    driver::CampaignReport whole = driver::runCampaign(jobs, opts);
    ASSERT_EQ(whole.jobsFailed, 0u);

    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 3, 7);

    driver::CampaignReport merged;
    std::string err;
    ASSERT_TRUE(driver::mergeReports(shards, merged, &err)) << err;

    EXPECT_EQ(merged.seed, whole.seed);
    EXPECT_EQ(merged.shardIndex, 0u);
    EXPECT_EQ(merged.shardCount, 1u);
    EXPECT_EQ(merged.jobsSkipped, 0u);
    EXPECT_EQ(merged.jobsRun, whole.jobsRun);
    EXPECT_EQ(merged.jobsFailed, whole.jobsFailed);
    EXPECT_EQ(merged.totalCycles, whole.totalCycles);
    EXPECT_EQ(merged.totalUops, whole.totalUops);
    ASSERT_EQ(merged.jobs.size(), whole.jobs.size());
    for (size_t i = 0; i < whole.jobs.size(); ++i) {
        SCOPED_TRACE(whole.jobs[i].label);
        EXPECT_FALSE(merged.jobs[i].skipped);
        EXPECT_EQ(merged.jobs[i].index, i);
        EXPECT_EQ(merged.jobs[i].seed, whole.jobs[i].seed);
        EXPECT_EQ(merged.jobs[i].specHash, whole.jobs[i].specHash);
        EXPECT_EQ(merged.jobs[i].run.cycles,
                  whole.jobs[i].run.cycles);
        EXPECT_EQ(merged.jobs[i].run.uops, whole.jobs[i].run.uops);
        EXPECT_EQ(merged.jobs[i].run.macroOps,
                  whole.jobs[i].run.macroOps);
        EXPECT_DOUBLE_EQ(merged.jobs[i].run.ipc,
                         whole.jobs[i].run.ipc);
    }
}

TEST(Shard, ShardReportJsonRoundTrips)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 3;
    opts.shardIndex = 0;
    opts.shardCount = 2;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);

    std::ostringstream ss;
    driver::writeReport(report, ss);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str(), "chex-campaign-report-v7");
    EXPECT_EQ(doc.at("shard").at("index").number(), 0.0);
    EXPECT_EQ(doc.at("shard").at("count").number(), 2.0);
    EXPECT_EQ(doc.at("summary").at("jobsSkipped").number(), 4.0);
    const json::Value &jarr = doc.at("jobs");
    ASSERT_EQ(jarr.size(), jobs.size());
    for (size_t i = 0; i < jarr.size(); ++i) {
        SCOPED_TRACE(i);
        const json::Value &job = jarr.at(i);
        EXPECT_EQ(job.at("status").str(),
                  i % 2 == 0 ? "ok" : "skipped");
        if (i % 2 != 0) {
            EXPECT_EQ(job.find("result"), nullptr);
        }
    }

    driver::CampaignReport back;
    ASSERT_TRUE(driver::fromJson(doc, back, &err)) << err;
    EXPECT_EQ(back.shardIndex, 0u);
    EXPECT_EQ(back.shardCount, 2u);
    EXPECT_EQ(back.jobsSkipped, 4u);
    ASSERT_EQ(back.jobs.size(), report.jobs.size());
    for (size_t i = 0; i < back.jobs.size(); ++i) {
        EXPECT_EQ(back.jobs[i].skipped, report.jobs[i].skipped);
        EXPECT_EQ(back.jobs[i].seed, report.jobs[i].seed);
        EXPECT_EQ(back.jobs[i].run.cycles, report.jobs[i].run.cycles);
    }
}

TEST(Shard, FromJsonRejectsBadShardGeometry)
{
    const char *base = R"({
      "schema": "chex-campaign-report-v7",
      "seed": 1, "workers": 1,
      "shard": {"index": %s, "count": %s},
      "summary": {"jobsRun": 0, "jobsFailed": 0, "jobsCached": 0,
                  "jobsSkipped": 0, "jobsFromSnapshot": 0,
                  "wallSeconds": 0, "serialSeconds": 0,
                  "speedupVsSerial": 0, "totalCycles": 0,
                  "totalUops": 0, "aggregateIpc": 0},
      "jobs": []
    })";
    for (auto [index, count] : {std::pair<const char *, const char *>
                                    {"2", "2"},
                                {"0", "0"}}) {
        char buf[640];
        std::snprintf(buf, sizeof(buf), base, index, count);
        json::Value doc;
        ASSERT_TRUE(json::Value::parse(buf, doc, nullptr));
        driver::CampaignReport report;
        std::string err;
        EXPECT_FALSE(driver::fromJson(doc, report, &err));
        EXPECT_NE(err.find("shard"), std::string::npos) << err;
    }
}

TEST(Merge, RejectsMismatchedSeeds)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 2, 7);
    driver::CampaignOptions other;
    other.workers = 2;
    other.seed = 8; // different campaign seed
    other.shardIndex = 1;
    other.shardCount = 2;
    shards[1] = driver::runCampaign(jobs, other);

    driver::CampaignReport merged;
    std::string err;
    EXPECT_FALSE(driver::mergeReports(shards, merged, &err));
    EXPECT_NE(err.find("seed"), std::string::npos) << err;
}

TEST(Merge, RejectsOverlappingShards)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 2, 7);
    shards[1] = shards[0]; // the same shard twice

    driver::CampaignReport merged;
    std::string err;
    EXPECT_FALSE(driver::mergeReports(shards, merged, &err));
    EXPECT_NE(err.find("overlap"), std::string::npos) << err;
}

TEST(Merge, RejectsIncompleteShardSet)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 3, 7);
    shards.pop_back(); // shard 2 of 3 missing

    driver::CampaignReport merged;
    std::string err;
    EXPECT_FALSE(driver::mergeReports(shards, merged, &err));
    EXPECT_NE(err.find("incomplete"), std::string::npos) << err;
}

TEST(Merge, RejectsDisagreeingJobIdentity)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 2, 7);
    // The shards were really run against different job lists: the
    // identity fields of any common index disagree.
    shards[1].jobs[0].specHash ^= 1;

    driver::CampaignReport merged;
    std::string err;
    EXPECT_FALSE(driver::mergeReports(shards, merged, &err));
    EXPECT_NE(err.find("options"), std::string::npos) << err;
}

TEST(Merge, RejectsEmptyInput)
{
    driver::CampaignReport merged;
    std::string err;
    EXPECT_FALSE(driver::mergeReports({}, merged, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Merge, MergedReportSatisfiesTheCache)
{
    std::vector<driver::JobSpec> jobs = eightJobs();
    std::vector<driver::CampaignReport> shards =
        runSharded(jobs, 2, 7);

    driver::CampaignReport merged;
    std::string err;
    ASSERT_TRUE(driver::mergeReports(shards, merged, &err)) << err;

    // Round-trip through JSON exactly like `merge --out` + `run
    // --cache` would, then re-run unsharded against the cache.
    std::ostringstream ss;
    driver::writeReport(merged, ss);
    json::Value doc;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    driver::CampaignReport prior;
    ASSERT_TRUE(driver::fromJson(doc, prior, &err)) << err;

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = 7;
    opts.cacheReports.push_back(prior);
    driver::CampaignReport second = driver::runCampaign(jobs, opts);

    EXPECT_EQ(second.jobsCached, jobs.size());
    EXPECT_EQ(second.jobsFailed, 0u);
    for (size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(second.jobs[i].label);
        EXPECT_TRUE(second.jobs[i].cached);
        EXPECT_EQ(second.jobs[i].run.cycles, merged.jobs[i].run.cycles);
    }
}

TEST(BenchEnv, GeomeanSkipsNonPositiveValues)
{
    EXPECT_DOUBLE_EQ(bench::geomean({2.0, 8.0}), 4.0);
    // Zeros and negatives have no logarithm: they are skipped, not
    // allowed to poison the mean with -inf/NaN.
    EXPECT_DOUBLE_EQ(bench::geomean({2.0, 0.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(bench::geomean({-1.0, 2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(bench::geomean({0.0, -3.0}), 0.0);
    EXPECT_DOUBLE_EQ(bench::geomean({}), 0.0);
}

TEST(BenchEnv, KnobParsingValidatesAndClamps)
{
    setenv("CHEX_BENCH_SCALE", "12", 1);
    EXPECT_EQ(bench::scale(), 12u);
    unsetenv("CHEX_BENCH_SCALE");
    EXPECT_EQ(bench::scale(), 1u);
    setenv("CHEX_BENCH_JOBS", "3", 1);
    EXPECT_EQ(bench::benchJobs(), 3u);
    unsetenv("CHEX_BENCH_JOBS");
    EXPECT_GE(bench::benchJobs(), 1u);

    // A malformed value is fatal instead of quietly replaced by the
    // default: a figure must not run at a scale nobody asked for.
    for (const char *bad : {"garbage", "0", "-5", "7x", "+3", " 3",
                            "99999999999999999999"}) {
        SCOPED_TRACE(bad);
        EXPECT_EXIT(
            {
                setenv("CHEX_BENCH_SCALE", bad, 1);
                bench::scale();
            },
            testing::ExitedWithCode(1), "CHEX_BENCH_SCALE");
        EXPECT_EXIT(
            {
                setenv("CHEX_BENCH_JOBS", bad, 1);
                bench::benchJobs();
            },
            testing::ExitedWithCode(1), "CHEX_BENCH_JOBS");
    }
    // A width that does not fit the pool's unsigned is malformed too.
    EXPECT_EXIT(
        {
            setenv("CHEX_BENCH_JOBS", "4294967296", 1);
            bench::benchJobs();
        },
        testing::ExitedWithCode(1), "CHEX_BENCH_JOBS");
}

TEST(BenchEnv, ParseShardSpec)
{
    unsigned index = 99, count = 99;
    std::string err;
    EXPECT_TRUE(driver::parseShardSpec("0/2", index, count, &err));
    EXPECT_EQ(index, 0u);
    EXPECT_EQ(count, 2u);
    EXPECT_TRUE(driver::parseShardSpec("1/2", index, count));
    EXPECT_EQ(index, 1u);
    EXPECT_EQ(count, 2u);
    EXPECT_TRUE(driver::parseShardSpec("0/1", index, count));

    // Rejections must not clobber the outputs.
    index = 1;
    count = 2;
    for (const char *bad : {"", "0", "/", "0/", "/2", "x/2", "0/y",
                            "0/2x", "-1/2", "1/-2", "0/0", "2/2",
                            "3/2", "0 /2"}) {
        SCOPED_TRACE(bad);
        err.clear();
        EXPECT_FALSE(
            driver::parseShardSpec(bad, index, count, &err));
        EXPECT_FALSE(err.empty());
        EXPECT_EQ(index, 1u);
        EXPECT_EQ(count, 2u);
    }
}

TEST(Report, ViolationRecordsSerialized)
{
    // An out-of-bounds workload: single run through the serializer.
    driver::JobSpec spec;
    spec.profile = tinyProfile();
    spec.body = [](const driver::JobSpec &s, uint64_t) -> RunResult {
        System sys(s.config);
        Program prog = generateSmokeProgram(2, 64);
        sys.load(prog);
        return sys.run();
    };
    driver::CampaignReport r = driver::runCampaign({spec}, {});
    ASSERT_EQ(r.jobs.size(), 1u);

    json::Value job = driver::toJson(r.jobs[0]);
    const json::Value &res = job.at("result");
    ASSERT_TRUE(res.at("violations").isArray());
    for (size_t i = 0; i < res.at("violations").size(); ++i) {
        const json::Value &v = res.at("violations").at(i);
        EXPECT_TRUE(v.find("kind"));
        EXPECT_TRUE(v.find("pc"));
        EXPECT_TRUE(v.find("addr"));
    }
}

TEST(Report, SystemDumpStatsJsonParses)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.load(generateWorkload(tinyProfile(), 5));
    RunResult r = sys.run();
    ASSERT_TRUE(r.exited);

    std::ostringstream ss;
    sys.dumpStatsJson(ss);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    const json::Value &system = doc.at("system");
    EXPECT_GT(system.at("core").at("cycles").number(), 0.0);
    EXPECT_EQ(system.at("core").at("cycles").number(),
              double(r.cycles));
}

// --- snapshot-fanned campaigns and record/replay -------------------

/**
 * A pinned-seed (registered-profile x variant) job list: exactly
 * what `chex-campaign run` builds for a single-rep campaign, and
 * the only shape the replay planner can reconstruct from a report.
 */
std::vector<driver::JobSpec>
pinnedMatrix(uint64_t seed, uint64_t scale)
{
    const char *names[] = {"mcf", "lbm"};
    const VariantKind kinds[] = {VariantKind::Baseline,
                                 VariantKind::MicrocodePrediction};
    std::vector<driver::JobSpec> jobs;
    for (const char *name : names) {
        for (VariantKind kind : kinds) {
            driver::JobSpec spec;
            spec.label = std::string(name) + "/" + variantName(kind);
            spec.profile = profileByName(name).scaledBy(scale);
            spec.config.variant.kind = kind;
            spec.workloadSeed = seed;
            jobs.push_back(std::move(spec));
        }
    }
    return jobs;
}

/** Warm every job point like `chex-campaign snapshot` does. */
std::shared_ptr<const snapshot::Bundle>
bundleFor(const std::vector<driver::JobSpec> &specs, uint64_t seed,
          uint64_t warmup)
{
    snapshot::Bundle b;
    b.campaignSeed = seed;
    b.warmupMacros = warmup;
    for (const driver::JobSpec &spec : specs) {
        snapshot::MachineEntry entry;
        std::string err;
        EXPECT_TRUE(snapshot::buildEntry(
            spec.profile, spec.config, seed, warmup,
            driver::specHash(spec, seed), &entry, &err))
            << spec.label << ": " << err;
        b.entries.push_back(std::move(entry));
    }
    return std::make_shared<const snapshot::Bundle>(std::move(b));
}

TEST(SnapshotCampaign, FanOutIsBitIdenticalAndFoldsSpecHashes)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);

    driver::CampaignOptions scratch;
    scratch.workers = 2;
    scratch.seed = seed;
    driver::CampaignReport a = driver::runCampaign(jobs, scratch);
    ASSERT_EQ(a.jobsFailed, 0u);
    EXPECT_EQ(a.jobsFromSnapshot, 0u);

    driver::CampaignOptions fanned = scratch;
    fanned.snapshot = bundleFor(jobs, seed, 500);
    driver::CampaignReport b = driver::runCampaign(jobs, fanned);
    ASSERT_EQ(b.jobsFailed, 0u);
    EXPECT_EQ(b.jobsFromSnapshot, jobs.size());

    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (size_t i = 0; i < a.jobs.size(); ++i) {
        SCOPED_TRACE(a.jobs[i].label);
        EXPECT_FALSE(a.jobs[i].fromSnapshot);
        EXPECT_TRUE(b.jobs[i].fromSnapshot);
        // The restored warm-up prefix must not perturb anything the
        // run measures.
        EXPECT_EQ(a.jobs[i].run.cycles, b.jobs[i].run.cycles);
        EXPECT_EQ(a.jobs[i].run.uops, b.jobs[i].run.uops);
        EXPECT_EQ(a.jobs[i].run.macroOps, b.jobs[i].run.macroOps);
        EXPECT_EQ(a.jobs[i].run.ipc, b.jobs[i].run.ipc);
        EXPECT_EQ(a.jobs[i].run.capChecksInjected,
                  b.jobs[i].run.capChecksInjected);
        EXPECT_EQ(a.jobs[i].run.violationDetected,
                  b.jobs[i].run.violationDetected);
        // ... but the simulation point identity must differ: the
        // snapshot's state digest is folded into the spec hash.
        EXPECT_NE(a.jobs[i].specHash, b.jobs[i].specHash);
        EXPECT_NE(b.jobs[i].specHash, 0u);
    }
}

TEST(SnapshotCampaign, FoldedHashesKeepTheCacheModesApart)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);
    std::shared_ptr<const snapshot::Bundle> bundle =
        bundleFor(jobs, seed, 500);

    driver::CampaignOptions scratch;
    scratch.workers = 2;
    scratch.seed = seed;
    driver::CampaignReport from_scratch =
        driver::runCampaign(jobs, scratch);

    driver::CampaignOptions fanned = scratch;
    fanned.snapshot = bundle;
    driver::CampaignReport from_snapshot =
        driver::runCampaign(jobs, fanned);

    // A from-scratch report must not satisfy a snapshot campaign...
    driver::CampaignOptions fanned_cached = fanned;
    fanned_cached.cacheReports = {from_scratch};
    driver::CampaignReport r1 =
        driver::runCampaign(jobs, fanned_cached);
    EXPECT_EQ(r1.jobsCached, 0u);
    EXPECT_EQ(r1.jobsFromSnapshot, jobs.size());

    // ... nor a snapshot report a from-scratch campaign ...
    driver::CampaignOptions scratch_cached = scratch;
    scratch_cached.cacheReports = {from_snapshot};
    driver::CampaignReport r2 =
        driver::runCampaign(jobs, scratch_cached);
    EXPECT_EQ(r2.jobsCached, 0u);

    // ... while the matching mode is a full cache hit.
    driver::CampaignOptions fanned_self = fanned;
    fanned_self.cacheReports = {from_snapshot};
    driver::CampaignReport r3 =
        driver::runCampaign(jobs, fanned_self);
    EXPECT_EQ(r3.jobsCached, jobs.size());
}

TEST(SnapshotCampaign, ReportV5RoundTripsFromSnapshotFlag)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = seed;
    opts.snapshot = bundleFor(jobs, seed, 500);
    driver::CampaignReport report = driver::runCampaign(jobs, opts);
    ASSERT_EQ(report.jobsFromSnapshot, jobs.size());

    std::ostringstream ss;
    driver::writeReport(report, ss);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    EXPECT_EQ(doc.at("schema").str(), "chex-campaign-report-v7");
    EXPECT_EQ(doc.at("summary").at("jobsFromSnapshot").number(),
              double(jobs.size()));
    for (size_t i = 0; i < doc.at("jobs").size(); ++i)
        EXPECT_TRUE(doc.at("jobs").at(i).at("fromSnapshot").boolean());

    driver::CampaignReport back;
    ASSERT_TRUE(driver::fromJson(doc, back, &err)) << err;
    EXPECT_EQ(back.jobsFromSnapshot, report.jobsFromSnapshot);
    for (size_t i = 0; i < back.jobs.size(); ++i) {
        EXPECT_TRUE(back.jobs[i].fromSnapshot);
        EXPECT_EQ(back.jobs[i].specHash, report.jobs[i].specHash);
    }
}

TEST(SnapshotCampaign, MergedShardsKeepTheSummaryCounts)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);
    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = seed;
    opts.snapshot = bundleFor(jobs, seed, 500);
    driver::CampaignReport whole = driver::runCampaign(jobs, opts);

    std::vector<driver::CampaignReport> shards;
    for (unsigned i = 0; i < 2; ++i) {
        opts.shardIndex = i;
        opts.shardCount = 2;
        shards.push_back(driver::runCampaign(jobs, opts));
    }
    driver::CampaignReport merged;
    std::string err;
    ASSERT_TRUE(driver::mergeReports(shards, merged, &err)) << err;

    EXPECT_EQ(merged.jobsRun, whole.jobsRun);
    EXPECT_EQ(merged.jobsFailed, whole.jobsFailed);
    EXPECT_EQ(merged.jobsCached, whole.jobsCached);
    EXPECT_EQ(merged.jobsSkipped, whole.jobsSkipped);
    EXPECT_EQ(merged.jobsFromSnapshot, whole.jobsFromSnapshot);
    EXPECT_EQ(merged.jobsFromSnapshot, jobs.size());
    EXPECT_EQ(merged.totalCycles, whole.totalCycles);
    EXPECT_EQ(merged.totalUops, whole.totalUops);
    EXPECT_EQ(merged.aggregateIpc, whole.aggregateIpc);
}

/**
 * Calls @p visit with every copy of @p v that lacks exactly one
 * object member (at any depth), and with that member's name.
 */
void
eachMemberRemoved(
    const json::Value &v,
    const std::function<void(const json::Value &, const std::string &)>
        &visit)
{
    if (v.isArray()) {
        for (size_t i = 0; i < v.size(); ++i) {
            eachMemberRemoved(v.at(i), [&](const json::Value &item,
                                           const std::string &name) {
                json::Value copy = json::Value::array();
                for (size_t j = 0; j < v.size(); ++j)
                    copy.push(j == i ? item : v.at(j));
                visit(copy, name);
            });
        }
        return;
    }
    const auto &members = v.members();
    for (size_t i = 0; i < members.size(); ++i) {
        // v with member i dropped (@p with null) or replaced.
        auto rebuilt = [&](const json::Value *with) {
            json::Value copy = json::Value::object();
            for (size_t j = 0; j < members.size(); ++j) {
                if (j != i)
                    copy.set(members[j].first, members[j].second);
                else if (with)
                    copy.set(members[j].first, *with);
            }
            return copy;
        };
        visit(rebuilt(nullptr), members[i].first);
        eachMemberRemoved(members[i].second,
                          [&](const json::Value &inner,
                              const std::string &name) {
                              visit(rebuilt(&inner), name);
                          });
    }
}

/**
 * @p v with the value at @p path (member names, or decimal indices
 * into arrays) replaced by @p leaf.
 */
json::Value
patched(const json::Value &v, const std::vector<std::string> &path,
        const json::Value &leaf, size_t depth = 0)
{
    if (depth == path.size())
        return leaf;
    if (v.isArray()) {
        json::Value copy = json::Value::array();
        for (size_t i = 0; i < v.size(); ++i) {
            copy.push(std::to_string(i) == path[depth]
                          ? patched(v.at(i), path, leaf, depth + 1)
                          : v.at(i));
        }
        return copy;
    }
    json::Value copy = json::Value::object();
    for (const auto &[key, member] : v.members()) {
        copy.set(key, key == path[depth]
                          ? patched(member, path, leaf, depth + 1)
                          : member);
    }
    return copy;
}

TEST(Report, StrictReaderRoundTripsAndRejectsEveryDefect)
{
    // One campaign with every row shape: from-snapshot, cached and
    // attack rows, the four failure causes, and (shard 0 of 2, each
    // job twice) a skipped placeholder behind every one of them.
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> pinned = pinnedMatrix(seed, 50);
    driver::JobSpec from_snapshot = pinned[0];
    driver::JobSpec cached = pinned[2];
    driver::JobSpec attack;
    attack.label = "gen/mix#0/ucode-pred";
    attack.attack = "gen/mix";
    attack.profile = attackProfile();
    attack.config.variant.kind = VariantKind::MicrocodePrediction;
    attack.workloadSeed = seed;
    std::vector<driver::JobSpec> failing(4, pinned[1]);
    failing[0].body = [](const driver::JobSpec &, uint64_t) -> RunResult {
        chex_panic("deliberate test panic");
    };
    failing[1].body = [](const driver::JobSpec &, uint64_t) -> RunResult {
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    };
    failing[2].body = [](const driver::JobSpec &, uint64_t) -> RunResult {
        ::_exit(7);
    };
    failing[3].body = [](const driver::JobSpec &, uint64_t) -> RunResult {
        throw std::runtime_error("boom");
    };

    std::vector<driver::JobSpec> jobs;
    for (const driver::JobSpec &spec :
         {from_snapshot, cached, attack, failing[0], failing[1],
          failing[2], failing[3]}) {
        jobs.push_back(spec);
        jobs.push_back(spec);
    }
    driver::CampaignOptions opts;
    opts.workers = 4;
    opts.seed = seed;
    opts.isolation = true;
    opts.timeoutSeconds = 1.0;
    opts.shardIndex = 0;
    opts.shardCount = 2;
    opts.snapshot = bundleFor({from_snapshot}, seed, 500);
    opts.cacheReports.push_back(driver::runCampaign({cached}, {}));
    driver::CampaignReport report = driver::runCampaign(jobs, opts);
    ASSERT_EQ(report.jobsSkipped, 7u);
    ASSERT_EQ(report.jobsFromSnapshot, 1u);
    ASSERT_EQ(report.jobsCached, 1u);
    ASSERT_EQ(report.jobsFailed, 4u);
    ASSERT_FALSE(report.jobs[4].run.violations.empty());
    std::set<driver::FailureCause> causes;
    for (const driver::JobResult &jr : report.jobs)
        causes.insert(jr.cause);
    ASSERT_EQ(causes.size(), 5u); // none + the four failure causes

    // toJson -> dump -> parse -> fromJson -> toJson is the identity.
    const std::string text = driver::toJson(report).dump();
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(text, doc, &err)) << err;
    driver::CampaignReport back;
    ASSERT_TRUE(driver::fromJson(doc, back, &err)) << err;
    EXPECT_EQ(driver::toJson(back).dump(), text);

    // Every member is required: dropping any one fails, naming it.
    size_t removals = 0;
    eachMemberRemoved(doc, [&](const json::Value &bad,
                               const std::string &name) {
        ++removals;
        driver::CampaignReport out;
        std::string why;
        EXPECT_FALSE(driver::fromJson(bad, out, &why)) << name;
        EXPECT_NE(why.find(name), std::string::npos)
            << name << ": " << why;
    });
    EXPECT_GT(removals, 300u);

    // Wrong types, inexact integers, and unknown tokens fail too.
    struct Defect
    {
        std::vector<std::string> path;
        json::Value value;
    };
    const Defect defects[] = {
        {{"schema"}, "chex-campaign-report-v6"},
        {{"seed"}, 1.5},
        {{"seed"}, -1},
        {{"seed"}, 18446744073709551616.0},
        {{"workers"}, "2"},
        {{"shard", "count"}, true},
        {{"summary", "wallSeconds"}, "fast"},
        {{"jobs"}, json::Value::object()},
        {{"jobs", "0", "specHash"}, "not-a-hash"},
        {{"jobs", "0", "status"}, "done"},
        {{"jobs", "0", "attemptSeconds"}, json::Value::array().push("1")},
        {{"jobs", "0", "result", "cycles"}, "12"},
        {{"jobs", "0", "result", "exited"}, 1},
        {{"jobs", "4", "attack"}, 3},
        {{"jobs", "4", "result", "violations", "0", "kind"}, "bogus"},
        {{"jobs", "4", "result", "violations", "0", "pid"},
         uint64_t(1) << 40},
        {{"jobs", "6", "cause"}, "bogus-token"},
        {{"jobs", "6", "signal"}, 6.5},
    };
    for (const Defect &d : defects) {
        driver::CampaignReport out;
        std::string why;
        EXPECT_FALSE(driver::fromJson(patched(doc, d.path, d.value), out,
                                      &why))
            << d.path.back();
        EXPECT_NE(why.find(d.path.back()), std::string::npos) << why;
    }
}

TEST(Replay, ReproducesRecordedTimeoutFailure)
{
    const uint64_t seed = 5;
    driver::JobSpec spec;
    spec.label = "mcf/CHEx86: Micro-code Prediction Driven";
    spec.profile = profileByName("mcf").scaledBy(50);
    spec.config.variant.kind = VariantKind::MicrocodePrediction;
    spec.workloadSeed = seed;

    driver::CampaignOptions opts;
    opts.workers = 1;
    opts.seed = seed;
    opts.isolation = true;
    opts.timeoutSeconds = 1e-4; // far below any real job's runtime
    driver::CampaignReport report = driver::runCampaign({spec}, opts);
    ASSERT_EQ(report.jobs.size(), 1u);
    ASSERT_TRUE(report.jobs[0].failed);
    ASSERT_EQ(report.jobs[0].cause, driver::FailureCause::Timeout);

    // Round-trip through JSON like `replay --report` does: the plan
    // is built from the written report, not in-memory state.
    std::ostringstream ss;
    driver::writeReport(report, ss);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::Value::parse(ss.str(), doc, &err)) << err;
    driver::CampaignReport loaded;
    ASSERT_TRUE(driver::fromJson(doc, loaded, &err)) << err;

    size_t row = 0;
    ASSERT_TRUE(driver::selectReplayRow(loaded, std::nullopt, &row,
                                        &err))
        << err;
    EXPECT_EQ(row, 0u);
    driver::ReplayPlan plan;
    ASSERT_TRUE(driver::planReplay(loaded, row, 50,
                                   nullptr, &plan, &err))
        << err;
    EXPECT_EQ(plan.spec.label, spec.label);
    EXPECT_FALSE(plan.fromSnapshot);
    EXPECT_FALSE(plan.spec.config.detectUninitializedReads);

    // Same watchdog → the recorded failure cause reproduces.
    driver::CampaignReport rerun =
        driver::runCampaign({plan.spec}, opts);
    ASSERT_EQ(rerun.jobs.size(), 1u);
    std::string detail;
    EXPECT_TRUE(driver::outcomeReproduced(loaded.jobs[0],
                                          rerun.jobs[0], &detail))
        << detail;
    EXPECT_EQ(rerun.jobs[0].cause, driver::FailureCause::Timeout);

    // Relaxed watchdog → the job passes and the divergence is loud.
    driver::CampaignOptions relaxed = opts;
    relaxed.timeoutSeconds = 300.0;
    driver::CampaignReport passed =
        driver::runCampaign({plan.spec}, relaxed);
    ASSERT_EQ(passed.jobsFailed, 0u);
    EXPECT_FALSE(driver::outcomeReproduced(loaded.jobs[0],
                                           passed.jobs[0], &detail));
    EXPECT_NE(detail.find("OUTCOME DIFFERS"), std::string::npos)
        << detail;
}

TEST(Replay, PlansFromSnapshotRowsOnlyWithTheirBundle)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);
    std::shared_ptr<const snapshot::Bundle> bundle =
        bundleFor(jobs, seed, 500);

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = seed;
    opts.snapshot = bundle;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);
    ASSERT_EQ(report.jobsFromSnapshot, jobs.size());

    std::string err;
    driver::ReplayPlan plan;
    // Without the bundle the row cannot be reconstructed.
    EXPECT_FALSE(driver::planReplay(report, 0, 50,
                                    nullptr, &plan, &err));
    EXPECT_NE(err.find("bundle"), std::string::npos) << err;
    // With it, the plan verifies against the folded hash and the
    // replayed job is bit-identical to the campaign row.
    ASSERT_TRUE(driver::planReplay(report, 0, 50,
                                   bundle.get(), &plan, &err))
        << err;
    EXPECT_TRUE(plan.fromSnapshot);
    driver::CampaignReport rerun =
        driver::runCampaign({plan.spec}, opts);
    ASSERT_EQ(rerun.jobsFailed, 0u);
    EXPECT_EQ(rerun.jobs[0].specHash, report.jobs[0].specHash);
    EXPECT_EQ(rerun.jobs[0].run.cycles, report.jobs[0].run.cycles);
}

TEST(Replay, RefusesUnreconstructibleRows)
{
    const uint64_t seed = 9;
    std::vector<driver::JobSpec> jobs = pinnedMatrix(seed, 50);

    driver::CampaignOptions opts;
    opts.workers = 2;
    opts.seed = seed;
    driver::CampaignReport report = driver::runCampaign(jobs, opts);
    ASSERT_EQ(report.jobsFailed, 0u);

    std::string err;
    size_t row = 0;
    // No failed rows and no explicit index: nothing to replay.
    EXPECT_FALSE(driver::selectReplayRow(report, std::nullopt, &row,
                                         &err));
    EXPECT_NE(err.find("no failed jobs"), std::string::npos) << err;
    // Out-of-range explicit index.
    EXPECT_FALSE(driver::selectReplayRow(report, size_t{99}, &row,
                                         &err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;

    driver::ReplayPlan plan;
    // A wrong --scale reconstructs a different simulation point;
    // the hash check refuses it instead of silently replaying it.
    EXPECT_FALSE(driver::planReplay(report, 0, 7,
                                    nullptr, &plan, &err));
    EXPECT_NE(err.find("does not match"), std::string::npos) << err;

    // Body-override jobs have no reconstructible spec (hash 0).
    driver::JobSpec custom;
    custom.label = "custom";
    custom.profile = tinyProfile();
    custom.body = [](const driver::JobSpec &s, uint64_t sd) {
        System sys(s.config);
        sys.load(generateWorkload(s.profile, sd));
        return sys.run();
    };
    driver::CampaignReport cr =
        driver::runCampaign({custom}, opts);
    EXPECT_FALSE(driver::planReplay(cr, 0, 1,
                                    nullptr, &plan, &err));
    EXPECT_NE(err.find("custom job body"), std::string::npos) << err;

    // Skipped rows of a sharded report never ran here.
    driver::CampaignOptions sharded = opts;
    sharded.shardIndex = 0;
    sharded.shardCount = 2;
    driver::CampaignReport shard = driver::runCampaign(jobs, sharded);
    ASSERT_TRUE(shard.jobs[1].skipped);
    EXPECT_FALSE(driver::planReplay(shard, 1, 50,
                                    nullptr, &plan, &err));
    EXPECT_NE(err.find("shard"), std::string::npos) << err;
}

} // namespace
} // namespace chex
