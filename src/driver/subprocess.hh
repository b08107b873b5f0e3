/**
 * @file
 * Process-isolated execution of campaign-job attempts.
 *
 * Each campaign worker thread owns one WorkerProcess: a long-lived
 * child that inherits the job list and options by copy-on-write.
 * runCampaign forks them before it starts the worker threads, so no
 * campaign thread holds a lock (allocator, static initializer) that
 * fork() would copy, held forever, into a child; only re-forks after
 * failures happen while other threads run. The parent
 * sends it a job index over a socketpair; the child evaluates the
 * job body and answers with one length-prefixed JSON document,
 * {"result": {...}} or {"error": "..."} (the serializers the
 * campaign report uses, read back through the same strict fromJson).
 * The parent supervises each attempt with a wall-clock watchdog that
 * starts when the index is sent, and classifies every way the
 * attempt can end:
 *
 *  - child answers {"result": {...}}                   -> success
 *  - child answers {"error": "..."}                    -> Exception
 *  - child dies on a signal (chex_panic -> SIGABRT,
 *    SIGSEGV, ...)                                     -> Signal
 *  - child outlives the watchdog and is SIGKILLed      -> Timeout
 *  - child exits non-zero without an answer            -> NonzeroExit
 *  - child exits 0 without one / garbles its answer    -> Exception
 *
 * Successive successful attempts of a thread share one child. Any
 * failed attempt retires it (SIGKILL, then reap), so a retry or the
 * next job starts in a fresh fork of the parent, exactly as if every
 * attempt had its own process. Reuse is result-preserving because
 * the simulator holds no mutable process-wide state beyond the log
 * level, and each job body builds its own System. Two pieces of
 * process-wide state are shared but immutable: Table I
 * (RuleDatabase::tableI, built on first use; a checker System copies
 * it before installing a rule), and the folded tag tables of the
 * content hashes (base/fnv.hh, built at compile time). Neither can
 * carry anything from one job into the next. Under isolation the
 * parent's threads never build a System, so a re-fork cannot copy
 * Table I's initializer lock held.
 *
 * One bad (profile × variant × seed) point therefore costs exactly
 * one job, never the campaign process.
 */

#ifndef CHEX_DRIVER_SUBPROCESS_HH
#define CHEX_DRIVER_SUBPROCESS_HH

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>

#include "driver/campaign.hh"

namespace chex
{
namespace driver
{

/** What one isolated attempt produced. */
struct AttemptOutcome
{
    bool ok = false;

    /** The child's reconstructed RunResult; valid only when ok. */
    RunResult run;

    FailureCause cause = FailureCause::None;
    std::string error; // human-readable detail when !ok

    /** Child exit code (cause NonzeroExit); 0 otherwise. */
    int exitCode = 0;

    /** Terminating/killing signal (cause Signal/Timeout); else 0. */
    int termSignal = 0;

    /**
     * Parent-measured wall clock of the whole attempt, including the
     * fork when the attempt had to start a worker.
     */
    double wallSeconds = 0.0;
};

/**
 * One long-lived worker process serving one campaign worker thread.
 *
 * Channel hygiene: every parent-side channel fd is registered under
 * one fork lock, and a freshly forked child closes all of them, so no
 * worker holds a sibling's channel open. Closing a channel therefore
 * ends its worker at once, and a worker's death reads as EOF or EPIPE
 * at once. Sends use MSG_NOSIGNAL: a dead peer is an EPIPE, never a
 * SIGPIPE that would kill the campaign.
 *
 * Not thread-safe: one object per worker thread. Distinct objects
 * are safe to use concurrently.
 */
class WorkerProcess
{
  public:
    /** @p body runs in the child, once for each job index sent. */
    explicit WorkerProcess(std::function<RunResult(size_t)> body);

    /** Ends the worker, if one is alive, by closing its channel. */
    ~WorkerProcess();

    WorkerProcess(const WorkerProcess &) = delete;
    WorkerProcess &operator=(const WorkerProcess &) = delete;

    /**
     * Fork the worker now, if none is alive, rather than at the next
     * run(). A fork that fails here is retried, and reported, by
     * run().
     */
    void start();

    /**
     * Run job @p index in the worker, forking one first if none is
     * alive, and kill it once @p timeout_seconds of wall clock elapse
     * after the index is sent (0 = no watchdog). A worker that died
     * while idle is re-forked and the index resent, at no cost to
     * the attempt. The worker is kept after a success and retired
     * after any failure. Never throws; every failure mode is an
     * AttemptOutcome.
     */
    AttemptOutcome run(size_t index, double timeout_seconds);

  private:
    /** Fork a worker; false (errno set) when that fails. */
    bool spawn();

    /**
     * Close the channel, SIGKILL the worker when @p kill, and reap
     * it; its wait status.
     */
    int retire(bool kill);

    std::function<RunResult(size_t)> body_;
    pid_t pid_ = -1; // -1: no worker alive
    int fd_ = -1;    // parent end of the channel
};

} // namespace driver
} // namespace chex

#endif // CHEX_DRIVER_SUBPROCESS_HH
