/**
 * @file
 * Fork-isolated execution of one campaign-job attempt.
 *
 * The worker fork()s a child that evaluates the job body and streams
 * the RunResult back to the parent over a pipe as a single JSON
 * document (the same serializers the campaign report uses, plus the
 * strict fromJson direction to rebuild the struct). The parent
 * supervises the child with a per-attempt wall-clock watchdog and
 * classifies every way the attempt can end:
 *
 *  - child exits 0 with {"result": {...}}              -> success
 *  - child exits 0 with {"error": "..."}               -> Exception
 *  - child dies on a signal (chex_panic -> SIGABRT,
 *    SIGSEGV, ...)                                     -> Signal
 *  - child outlives the watchdog and is SIGKILLed      -> Timeout
 *  - child exits non-zero / garbles the result         -> NonzeroExit
 *
 * One bad (profile × variant × seed) point therefore costs exactly
 * one job, never the campaign process.
 */

#ifndef CHEX_DRIVER_SUBPROCESS_HH
#define CHEX_DRIVER_SUBPROCESS_HH

#include <functional>
#include <string>

#include "driver/campaign.hh"

namespace chex
{
namespace driver
{

/** What one fork-isolated attempt produced. */
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

    /** Parent-measured wall clock of the whole attempt. */
    double wallSeconds = 0.0;
};

/**
 * Fork a child, evaluate @p body in it, and supervise: the child
 * reports its RunResult (or exception message) over a pipe, and the
 * parent kills it once @p timeout_seconds of wall clock elapse
 * (0 = no watchdog). Safe to call concurrently from multiple worker
 * threads. Never throws; every failure mode is an AttemptOutcome.
 */
AttemptOutcome runIsolatedAttempt(
    const std::function<RunResult()> &body, double timeout_seconds);

} // namespace driver
} // namespace chex

#endif // CHEX_DRIVER_SUBPROCESS_HH
