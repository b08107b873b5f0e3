#include "subprocess.hh"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>

#include "base/json.hh"
#include "base/logging.hh"
#include "driver/report.hh"

namespace chex
{
namespace driver
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * pipe() + fork() + parent-side close run under one lock: a worker
 * forking concurrently would otherwise capture this attempt's pipe
 * write end in its own child, deferring EOF until that unrelated
 * child exits — which the watchdog would misread as a hang.
 */
std::mutex fork_mtx;

/**
 * Child side: evaluate the body and report the outcome over @p fd
 * as one JSON document, then _exit (no atexit handlers — the child
 * carries a forked copy of the parent's state).
 */
[[noreturn]] void
childMain(int fd, const std::function<RunResult()> &body)
{
    json::Value doc = json::Value::object();
    try {
        RunResult r = body();
        doc.set("result", toJson(r));
    } catch (const std::exception &e) {
        doc.set("error", std::string(e.what()));
    } catch (...) {
        doc.set("error", "unknown exception");
    }
    std::string payload = doc.dump();
    size_t off = 0;
    while (off < payload.size()) {
        ssize_t n = ::write(fd, payload.data() + off,
                            payload.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::_exit(3); // parent sees a truncated payload
        }
        off += static_cast<size_t>(n);
    }
    ::_exit(0);
}

AttemptOutcome
localFailure(const char *what, Clock::time_point start)
{
    AttemptOutcome out;
    out.cause = FailureCause::Exception;
    out.error = csprintf("%s failed: %s", what, std::strerror(errno));
    out.wallSeconds = secondsSince(start);
    return out;
}

} // namespace

AttemptOutcome
runIsolatedAttempt(const std::function<RunResult()> &body,
                   double timeout_seconds)
{
    Clock::time_point start = Clock::now();

    int fds[2];
    pid_t pid;
    {
        std::lock_guard<std::mutex> lock(fork_mtx);
        if (::pipe(fds) != 0)
            return localFailure("pipe()", start);
        pid = ::fork();
        if (pid == 0) {
            ::close(fds[0]);
            childMain(fds[1], body); // never returns
        }
        ::close(fds[1]);
        if (pid < 0) {
            ::close(fds[0]);
            return localFailure("fork()", start);
        }
    }

    // Drain the pipe until EOF (child exited) or the deadline. A
    // poll()/read() error is remembered separately: the child may
    // well still be alive, so falling straight into the blocking
    // waitpid below would hang the campaign forever when no watchdog
    // is set — the error path must kill the child before reaping.
    bool timed_out = false;
    const char *io_error = nullptr; // failing call, when IO broke
    int io_errno = 0;
    std::string payload;
    char buf[4096];
    for (;;) {
        int wait_ms = -1;
        if (timeout_seconds > 0.0) {
            double remaining = timeout_seconds - secondsSince(start);
            if (remaining <= 0.0) {
                timed_out = true;
                break;
            }
            wait_ms = static_cast<int>(
                std::min(std::ceil(remaining * 1000.0), 3600000.0));
            wait_ms = std::max(wait_ms, 1);
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        int pr = ::poll(&pfd, 1, wait_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            io_error = "poll()";
            io_errno = errno;
            break;
        }
        if (pr == 0) {
            timed_out = true;
            break;
        }
        ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            io_error = "read()";
            io_errno = errno;
            break;
        }
        if (n == 0)
            break; // EOF: the only write end closed at child exit
        payload.append(buf, static_cast<size_t>(n));
    }
    ::close(fds[0]);

    if (timed_out || io_error)
        ::kill(pid, SIGKILL);

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}

    AttemptOutcome out;
    out.wallSeconds = secondsSince(start);

    if (timed_out) {
        out.cause = FailureCause::Timeout;
        out.termSignal = SIGKILL;
        out.error = csprintf(
            "killed after exceeding the %.1fs per-attempt watchdog",
            timeout_seconds);
        return out;
    }
    if (io_error) {
        // The payload is unreliable and the child was SIGKILLed by
        // the error path above, so its wait status only reflects our
        // own kill — classify by what actually went wrong here.
        out.cause = FailureCause::Exception;
        out.error = csprintf("result pipe %s failed: %s", io_error,
                             std::strerror(io_errno));
        return out;
    }
    if (WIFSIGNALED(status)) {
        int sig = WTERMSIG(status);
        out.cause = FailureCause::Signal;
        out.termSignal = sig;
        out.error = csprintf("child killed by signal %d (%s)", sig,
                             strsignal(sig));
        return out;
    }
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code != 0) {
        out.cause = FailureCause::NonzeroExit;
        out.exitCode = code;
        out.error = csprintf(
            "child exited with status %d without a result", code);
        return out;
    }

    // Exit 0: the payload carries either the RunResult or the
    // exception message.
    json::Value doc;
    std::string perr;
    if (!json::Value::parse(payload, doc, &perr) || !doc.isObject()) {
        out.cause = FailureCause::Exception;
        out.error = csprintf("child result unreadable (%s)",
                             payload.empty() ? "empty payload"
                                             : perr.c_str());
        return out;
    }
    if (const json::Value *res = doc.find("result")) {
        std::string ferr;
        if (fromJson(*res, out.run, &ferr)) {
            out.ok = true;
            return out;
        }
        out.cause = FailureCause::Exception;
        out.error = csprintf("child result unreadable (%s)", ferr.c_str());
        return out;
    }
    const json::Value *msg = doc.find("error");
    out.cause = FailureCause::Exception;
    out.error = msg && msg->isString()
                    ? msg->str()
                    : "child result unreadable (no result or error)";
    return out;
}

} // namespace driver
} // namespace chex
