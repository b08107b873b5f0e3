#include "subprocess.hh"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

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
 * socketpair() + fork() + parent-side close, and every change to
 * channel_fds, run under one lock, so a forking worker always sees
 * the complete set of parent-side channel fds it must close.
 */
std::mutex fork_mtx;
std::vector<int> channel_fds;

/** Send all of @p len bytes; false (errno set) on failure. */
bool
sendAll(int fd, const void *data, size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

/** Receive exactly @p len bytes; false on EOF or error. */
bool
recvAll(int fd, void *data, size_t len)
{
    char *p = static_cast<char *>(data);
    while (len > 0) {
        ssize_t n = ::recv(fd, p, len, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += n;
        len -= static_cast<size_t>(n);
    }
    return true;
}

/**
 * Child side: for each job index received on @p fd, evaluate the
 * body and answer with one length-prefixed JSON document. Ends with
 * _exit (no atexit handlers — the child carries a forked copy of the
 * parent's state) when the parent closes the channel.
 */
[[noreturn]] void
serve(int fd, const std::function<RunResult(size_t)> &body)
{
    for (;;) {
        uint64_t index;
        if (!recvAll(fd, &index, sizeof(index)))
            ::_exit(0); // channel closed: the campaign is done
        json::Value doc = json::Value::object();
        try {
            RunResult r = body(static_cast<size_t>(index));
            doc.set("result", toJson(r));
        } catch (const std::exception &e) {
            doc.set("error", std::string(e.what()));
        } catch (...) {
            doc.set("error", "unknown exception");
        }
        std::string payload = doc.dump();
        uint64_t len = payload.size();
        std::string frame(reinterpret_cast<const char *>(&len),
                          sizeof(len));
        frame += payload;
        if (!sendAll(fd, frame.data(), frame.size()))
            ::_exit(3); // parent sees a truncated answer
    }
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

WorkerProcess::WorkerProcess(std::function<RunResult(size_t)> body)
    : body_(std::move(body))
{
}

WorkerProcess::~WorkerProcess()
{
    if (pid_ >= 0)
        retire(false); // the idle worker reads EOF and exits
}

void
WorkerProcess::start()
{
    if (pid_ < 0)
        spawn();
}

bool
WorkerProcess::spawn()
{
    std::lock_guard<std::mutex> lock(fork_mtx);
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
        return false;
    channel_fds.push_back(sv[0]);
    pid_t pid = ::fork();
    if (pid == 0) {
        // Every sibling's parent end, and our own: a worker must not
        // keep another worker's channel open past its parent's close.
        for (int fd : channel_fds)
            ::close(fd);
        serve(sv[1], body_); // never returns
    }
    int fork_errno = errno;
    ::close(sv[1]);
    if (pid < 0) {
        channel_fds.pop_back();
        ::close(sv[0]);
        errno = fork_errno;
        return false;
    }
    pid_ = pid;
    fd_ = sv[0];
    return true;
}

int
WorkerProcess::retire(bool kill)
{
    {
        std::lock_guard<std::mutex> lock(fork_mtx);
        channel_fds.erase(
            std::find(channel_fds.begin(), channel_fds.end(), fd_));
        ::close(fd_);
    }
    if (kill)
        ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {}
    pid_ = -1;
    fd_ = -1;
    return status;
}

AttemptOutcome
WorkerProcess::run(size_t index, double timeout_seconds)
{
    Clock::time_point start = Clock::now();

    // Send the index, forking a worker first when none is alive. A
    // send that finds the worker gone (EPIPE: it died idle since its
    // last answer) re-forks and resends once.
    const uint64_t msg = index;
    for (bool fresh = pid_ < 0;; fresh = true) {
        if (pid_ < 0 && !spawn())
            return localFailure("fork()", start);
        if (sendAll(fd_, &msg, sizeof(msg)))
            break;
        int send_errno = errno;
        retire(true);
        if (fresh || (send_errno != EPIPE && send_errno != ECONNRESET)) {
            errno = send_errno;
            return localFailure("send()", start);
        }
    }
    Clock::time_point sent = Clock::now();

    // Read the answer (8-byte length, then the JSON payload) until it
    // is complete, EOF (the worker died), or the deadline. A poll()/
    // read() error is remembered separately: the worker may well
    // still be alive, so it is killed before the blocking reap.
    bool timed_out = false;
    bool eof = false;
    const char *io_error = nullptr; // failing call, when IO broke
    int io_errno = 0;
    std::string frame;
    size_t need = sizeof(uint64_t);
    char buf[65536];
    while (frame.size() < need) {
        int wait_ms = -1;
        if (timeout_seconds > 0.0) {
            double remaining = timeout_seconds - secondsSince(sent);
            if (remaining <= 0.0) {
                timed_out = true;
                break;
            }
            wait_ms = static_cast<int>(
                std::min(std::ceil(remaining * 1000.0), 3600000.0));
            wait_ms = std::max(wait_ms, 1);
        }
        struct pollfd pfd = {fd_, POLLIN, 0};
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
        ssize_t n = ::read(fd_, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            io_error = "read()";
            io_errno = errno;
            break;
        }
        if (n == 0) {
            eof = true; // the only other end closed at worker exit
            break;
        }
        frame.append(buf, static_cast<size_t>(n));
        if (need == sizeof(uint64_t) && frame.size() >= need) {
            uint64_t len;
            std::memcpy(&len, frame.data(), sizeof(len));
            need += len;
        }
    }

    AttemptOutcome out;
    if (timed_out) {
        retire(true);
        out.wallSeconds = secondsSince(start);
        out.cause = FailureCause::Timeout;
        out.termSignal = SIGKILL;
        out.error = csprintf(
            "killed after exceeding the %.1fs per-attempt watchdog",
            timeout_seconds);
        return out;
    }
    if (io_error) {
        // The answer is unreliable and the worker is SIGKILLed here,
        // so its wait status only reflects our own kill — classify
        // by what actually went wrong.
        retire(true);
        out.wallSeconds = secondsSince(start);
        out.cause = FailureCause::Exception;
        out.error = csprintf("result channel %s failed: %s", io_error,
                             std::strerror(io_errno));
        return out;
    }
    if (eof) {
        int status = retire(false);
        out.wallSeconds = secondsSince(start);
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
        out.cause = FailureCause::Exception;
        out.error = csprintf("child result unreadable (%s)",
                             frame.empty() ? "empty payload"
                                           : "truncated payload");
        return out;
    }

    // A complete answer: the RunResult or the exception message.
    // Anything but a readable result retires the worker.
    std::string payload = frame.substr(sizeof(uint64_t));
    json::Value doc;
    std::string perr;
    if (!json::Value::parse(payload, doc, &perr) || !doc.isObject()) {
        out.error = csprintf("child result unreadable (%s)",
                             perr.c_str());
    } else if (const json::Value *res = doc.find("result")) {
        std::string ferr;
        if (fromJson(*res, out.run, &ferr)) {
            out.ok = true;
            out.wallSeconds = secondsSince(start);
            return out;
        }
        out.error = csprintf("child result unreadable (%s)",
                             ferr.c_str());
    } else {
        const json::Value *msg = doc.find("error");
        out.error = msg && msg->isString()
                        ? msg->str()
                        : "child result unreadable (no result or error)";
    }
    retire(true);
    out.wallSeconds = secondsSince(start);
    out.cause = FailureCause::Exception;
    return out;
}

} // namespace driver
} // namespace chex
