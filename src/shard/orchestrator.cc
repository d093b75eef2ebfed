#include "src/shard/orchestrator.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#define KILO_SHARD_HAVE_FORK 1
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace kilo::shard
{

Orchestrator::Orchestrator(Manifest m, OrchestratorConfig config)
    : manifest(std::move(m)), cfg(std::move(config))
{}

#ifdef KILO_SHARD_HAVE_FORK

namespace
{

using Clock = std::chrono::steady_clock;

/** Cap on the retained per-attempt worker stderr tail. */
constexpr size_t ErrTailBytes = 4096;

/** Stderr-tail lines surfaced in retry and failure messages. */
constexpr size_t ErrTailLogLines = 5;

/** One shard's supervision state across attempts. */
struct ShardState
{
    uint32_t shard = 0;
    uint32_t attempts = 0;
    bool done = false;
    bool running = false;
    bool killed = false;             ///< this attempt was SIGKILLed
    bool everKilled = false;         ///< any attempt was SIGKILLed
    pid_t pid = -1;
    int fd = -1;                     ///< read end of the stdout pipe
    int errFd = -1;                  ///< read end of the stderr pipe
    Clock::time_point deadline = Clock::time_point::max();
    Clock::time_point attemptStart;
    uint64_t wallMs = 0;             ///< final attempt's wall time
    std::string output;              ///< this attempt's rows
    std::string errBuf;              ///< partial stderr line
    std::string errTail;             ///< last ErrTailBytes of stderr
    bool sawHeartbeat = false;
    obs::Heartbeat lastHeartbeat;
    std::string lastFailure;

    /** (job, rolling digest) pairs harvested from FAILED attempts'
     *  partial output — the evidence the cross-attempt audit check
     *  compares the winning attempt against. Survives respawns. */
    std::vector<std::pair<size_t, uint64_t>> priorAudit;
};

/**
 * Parse one "KILOAUD <job-index> <16-hex-digest>" worker line.
 * Returns false when @p line is not of that exact shape.
 */
bool
parseAuditLine(const std::string &line, size_t *idx, uint64_t *digest)
{
    constexpr const char *Tag = "KILOAUD ";
    constexpr size_t TagLen = 8;
    if (line.compare(0, TagLen, Tag) != 0)
        return false;
    size_t sep = line.find(' ', TagLen);
    if (sep == std::string::npos || sep == TagLen)
        return false;
    std::string is = line.substr(TagLen, sep - TagLen);
    std::string hs = line.substr(sep + 1);
    if (is.find_first_not_of("0123456789") != std::string::npos)
        return false;
    if (hs.size() != 16 ||
        hs.find_first_not_of("0123456789abcdef") != std::string::npos)
        return false;
    *idx = size_t(std::strtoull(is.c_str(), nullptr, 10));
    *digest = std::strtoull(hs.c_str(), nullptr, 16);
    return true;
}

/** 16-digit lowercase hex of an audit digest (error messages). */
std::string
hexDigest(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)v);
    return buf;
}

/**
 * Harvest the audit digests a FAILED attempt managed to report
 * before dying: every complete, well-formed KILOAUD line of its
 * partial output. Everything else about a failed attempt is suspect
 * and excluded from the merge, but a digest line that made it out
 * whole is a claim about a finished job, and a later attempt of the
 * same shard must reproduce it exactly.
 */
void
harvestAudit(ShardState &s)
{
    size_t pos = 0;
    size_t eol;
    while ((eol = s.output.find('\n', pos)) != std::string::npos) {
        std::string line = s.output.substr(pos, eol - pos);
        pos = eol + 1;
        size_t idx = 0;
        uint64_t digest = 0;
        if (parseAuditLine(line, &idx, &digest))
            s.priorAudit.emplace_back(idx, digest);
    }
}

/** Temp file that unlinks itself. */
struct TempFile
{
    std::string path;

    explicit TempFile(const std::string &contents)
    {
        const char *tmpdir = std::getenv("TMPDIR");
        std::string templ =
            std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") +
            "/kilo_manifest_XXXXXX";
        std::vector<char> buf(templ.begin(), templ.end());
        buf.push_back('\0');
        int fd = ::mkstemp(buf.data());
        if (fd < 0)
            throw ShardError("cannot create temp manifest file");
        path.assign(buf.data());
        size_t off = 0;
        while (off < contents.size()) {
            ssize_t n = ::write(fd, contents.data() + off,
                                contents.size() - off);
            if (n <= 0) {
                ::close(fd);
                ::unlink(path.c_str());
                throw ShardError("temp manifest write failed");
            }
            off += size_t(n);
        }
        ::close(fd);
    }

    ~TempFile() { ::unlink(path.c_str()); }

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;
};

std::string
describeExit(int status)
{
    if (WIFEXITED(status))
        return "exit status " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status))
        return "killed by signal " + std::to_string(WTERMSIG(status));
    return "unknown wait status " + std::to_string(status);
}

void
spawnAttempt(ShardState &s, const OrchestratorConfig &cfg,
             uint32_t shard_count, const std::string &manifest_path)
{
    int fds[2];
    int err_fds[2];
    if (::pipe(fds) != 0)
        throw ShardError("pipe() failed for shard " +
                         std::to_string(s.shard));
    if (::pipe(err_fds) != 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        throw ShardError("pipe() failed for shard " +
                         std::to_string(s.shard));
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        ::close(err_fds[0]);
        ::close(err_fds[1]);
        throw ShardError("fork() failed for shard " +
                         std::to_string(s.shard));
    }
    if (pid == 0) {
        // Child: stdout and stderr each go to a pipe; the parent
        // parses heartbeats out of stderr and forwards the rest.
        ::dup2(fds[1], STDOUT_FILENO);
        ::dup2(err_fds[1], STDERR_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::close(err_fds[0]);
        ::close(err_fds[1]);
        // Process-level sharding replaces thread fan-out: one sweep
        // thread per worker.
        ::setenv("KILO_SWEEP_THREADS", "1", 1);
        std::vector<std::string> args;
        args.push_back(cfg.workerPath);
        for (const auto &a : cfg.workerArgs)
            args.push_back(a);
        if (cfg.progress)
            args.push_back("--heartbeat");
        if (cfg.audit)
            args.push_back("--audit");
        args.push_back("--shard");
        args.push_back(std::to_string(s.shard) + "/" +
                       std::to_string(shard_count));
        args.push_back(manifest_path);
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(cfg.workerPath.c_str(), argv.data());
        std::fprintf(stderr, "kilo-shard: cannot exec %s\n",
                     cfg.workerPath.c_str());
        ::_exit(127);
    }
    ::close(fds[1]);
    ::close(err_fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    ::fcntl(err_fds[0], F_SETFL, O_NONBLOCK);
    s.pid = pid;
    s.fd = fds[0];
    s.errFd = err_fds[0];
    s.running = true;
    s.killed = false;
    ++s.attempts;
    s.output.clear();
    s.errBuf.clear();
    s.errTail.clear();
    s.sawHeartbeat = false;
    // kilolint: allow(nondeterminism) attempt wall-time anchor
    s.attemptStart = Clock::now();
    s.deadline = cfg.workerDeadlineMs
                     ? s.attemptStart +
                           std::chrono::milliseconds(
                               int64_t(cfg.workerDeadlineMs))
                     : Clock::time_point::max();
}

/** Kill and reap every still-running attempt (error unwind). */
void
killAll(std::vector<ShardState> &shards)
{
    for (auto &s : shards) {
        if (!s.running)
            continue;
        ::kill(s.pid, SIGKILL);
        ::close(s.fd);
        if (s.errFd >= 0) {
            ::close(s.errFd);
            s.errFd = -1;
        }
        int status = 0;
        ::waitpid(s.pid, &status, 0);
        s.running = false;
    }
}

/** Absorb one complete worker stderr line: heartbeats update the
 *  shard's telemetry (and the live progress stream); anything else
 *  is forwarded verbatim and its tail kept for failure reports. */
void
processErrLine(ShardState &s, const std::string &line, bool progress)
{
    obs::Heartbeat hb;
    if (obs::parseHeartbeat(line, hb)) {
        s.sawHeartbeat = true;
        s.lastHeartbeat = hb;
        if (progress) {
            uint64_t left = hb.jobsTotal > hb.jobsDone
                                ? hb.jobsTotal - hb.jobsDone
                                : 0;
            uint64_t eta =
                hb.jobsDone ? hb.elapsedMs * left / hb.jobsDone : 0;
            std::fprintf(stderr,
                         "kilo-shard: [%d] %llu/%llu jobs, "
                         "%llu insts, last job %d (%llu ms), "
                         "eta ~%llu ms\n",
                         hb.shard,
                         (unsigned long long)hb.jobsDone,
                         (unsigned long long)hb.jobsTotal,
                         (unsigned long long)hb.instsDone,
                         hb.lastJob,
                         (unsigned long long)hb.lastJobWallMs,
                         (unsigned long long)eta);
        }
        return;
    }
    std::fprintf(stderr, "%s\n", line.c_str());
    s.errTail += line;
    s.errTail += '\n';
    if (s.errTail.size() > ErrTailBytes) {
        s.errTail.erase(0, s.errTail.size() - ErrTailBytes);
    }
}

/** Drain available stderr; closes errFd at EOF. */
void
drainErr(ShardState &s, bool progress)
{
    if (s.errFd < 0)
        return;
    char buf[1 << 14];
    for (;;) {
        ssize_t n = ::read(s.errFd, buf, sizeof(buf));
        if (n > 0) {
            s.errBuf.append(buf, size_t(n));
            size_t pos = 0;
            size_t eol;
            while ((eol = s.errBuf.find('\n', pos)) !=
                   std::string::npos) {
                processErrLine(s, s.errBuf.substr(pos, eol - pos),
                               progress);
                pos = eol + 1;
            }
            s.errBuf.erase(0, pos);
            continue;
        }
        if (n == 0) {
            ::close(s.errFd);
            s.errFd = -1;
            if (!s.errBuf.empty()) {
                processErrLine(s, s.errBuf, progress);
                s.errBuf.clear();
            }
            return;
        }
        if (errno == EINTR)
            continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
            ::close(s.errFd);
            s.errFd = -1;
        }
        return;
    }
}

/** Last @p max_lines lines of @p tail, indented for a log message. */
std::string
indentTail(const std::string &tail, size_t max_lines)
{
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < tail.size()) {
        size_t eol = tail.find('\n', pos);
        if (eol == std::string::npos)
            eol = tail.size();
        if (eol > pos)
            lines.push_back(tail.substr(pos, eol - pos));
        pos = eol + 1;
    }
    std::string out;
    size_t start =
        lines.size() > max_lines ? lines.size() - max_lines : 0;
    for (size_t i = start; i < lines.size(); ++i) {
        out += "\n    | ";
        out += lines[i];
    }
    return out;
}

/** Drain available stdout; returns true when the attempt finished
 *  (EOF reached and the child reaped). */
bool
drainPipe(ShardState &s, int &exit_status)
{
    char buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(s.fd, buf, sizeof(buf));
        if (n > 0) {
            s.output.append(buf, size_t(n));
            continue;
        }
        if (n == 0) {
            ::close(s.fd);
            s.fd = -1;
            ::waitpid(s.pid, &exit_status, 0);
            s.running = false;
            return true;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return false;
        if (errno == EINTR)
            continue;
        // A pipe read error is unrecoverable for this attempt; treat
        // it like a crash.
        ::close(s.fd);
        s.fd = -1;
        ::kill(s.pid, SIGKILL);
        ::waitpid(s.pid, &exit_status, 0);
        s.running = false;
        return true;
    }
}

} // anonymous namespace

std::string
Orchestrator::run()
{
    const size_t total_jobs = manifest.jobCount();
    uint32_t shard_count = cfg.shards ? cfg.shards : 1;
    shard_count = uint32_t(
        std::min<uint64_t>(shard_count,
                           std::max<uint64_t>(total_jobs, 1)));
    if (cfg.workerPath.empty())
        throw ShardError("OrchestratorConfig::workerPath is empty");
    if (cfg.maxAttempts == 0)
        throw ShardError("OrchestratorConfig::maxAttempts must be "
                         ">= 1");

    TempFile manifest_file(manifest.serialize());

    std::vector<ShardState> shards(shard_count);
    for (uint32_t i = 0; i < shard_count; ++i)
        shards[i].shard = i;

    try {
        for (auto &s : shards)
            spawnAttempt(s, cfg, shard_count, manifest_file.path);

        std::vector<pollfd> pfds;
        for (;;) {
            pfds.clear();
            Clock::time_point next_deadline =
                Clock::time_point::max();
            bool any_running = false;
            for (auto &s : shards) {
                if (!s.running)
                    continue;
                any_running = true;
                pfds.push_back({s.fd, POLLIN, 0});
                if (s.errFd >= 0)
                    pfds.push_back({s.errFd, POLLIN, 0});
                // Attempts already killed only need the EOF that the
                // SIGKILL guarantees; their past deadline must not
                // zero the poll timeout into a busy loop.
                if (!s.killed)
                    next_deadline = std::min(next_deadline,
                                             s.deadline);
            }
            if (!any_running)
                break; // every shard resolved

            int timeout_ms = -1;
            if (next_deadline != Clock::time_point::max()) {
                auto left =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(next_deadline -
                                                   // kilolint: allow(nondeterminism) poll timeout
                                                   Clock::now())
                        .count();
                timeout_ms = int(std::clamp<long long>(left + 1, 0,
                                                       60'000));
            }
            ::poll(pfds.data(), nfds_t(pfds.size()), timeout_ms);

            // Both pipes are non-blocking, so every running shard is
            // simply drained on each wake-up; poll() exists to sleep,
            // not to route.
            // kilolint: allow(nondeterminism) deadline enforcement
            Clock::time_point now = Clock::now();
            for (auto &s : shards) {
                if (!s.running)
                    continue;
                if (!s.killed && now >= s.deadline) {
                    // Deadline overrun: SIGKILL (once) closes the
                    // pipe; the drain below observes EOF and reaps
                    // the corpse on this or a later iteration.
                    ::kill(s.pid, SIGKILL);
                    s.killed = true;
                    s.everKilled = true;
                    ++nDeadlineKills;
                    s.lastFailure =
                        "deadline (" +
                        std::to_string(cfg.workerDeadlineMs) +
                        " ms) overrun";
                }
                drainErr(s, cfg.progress);
                int status = 0;
                if (!drainPipe(s, status))
                    continue; // more output later
                // The child is reaped: whatever stderr remains is
                // already in the pipe, so this final drain sees EOF.
                drainErr(s, cfg.progress);
                s.wallMs = uint64_t(
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(now -
                                                   s.attemptStart)
                        .count());
                if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
                    s.done = true;
                    continue;
                }
                // Failed attempt: its partial rows are excluded
                // wholesale and a fresh process retries the shard.
                if (s.lastFailure.empty())
                    s.lastFailure = describeExit(status);
                if (s.attempts >= cfg.maxAttempts) {
                    throw ShardError(
                        "shard " + std::to_string(s.shard) + "/" +
                        std::to_string(shard_count) + " failed after " +
                        std::to_string(s.attempts) + " attempt(s): " +
                        s.lastFailure +
                        indentTail(s.errTail, ErrTailLogLines));
                }
                ++nRetries;
                std::fprintf(
                    stderr,
                    "kilo-shard: shard %u attempt %u/%u failed "
                    "(%s); retrying%s\n",
                    s.shard, s.attempts, cfg.maxAttempts,
                    s.lastFailure.c_str(),
                    indentTail(s.errTail, ErrTailLogLines).c_str());
                s.lastFailure.clear();
                // Keep the dead attempt's audit evidence before the
                // respawn clears its output buffer.
                if (cfg.audit)
                    harvestAudit(s);
                spawnAttempt(s, cfg, shard_count,
                             manifest_file.path);
            }
        }
    } catch (...) {
        killAll(shards);
        throw;
    }

    // --------------------------------------------------- telemetry
    tele = SweepTelemetry();
    tele.retries = nRetries;
    tele.deadlineKills = nDeadlineKills;
    tele.shards.reserve(shards.size());
    for (const auto &s : shards) {
        ShardTelemetry st;
        st.shard = s.shard;
        st.attempts = s.attempts;
        st.deadlineKilled = s.everKilled;
        st.wallMs = s.wallMs;
        st.sawHeartbeat = s.sawHeartbeat;
        st.lastHeartbeat = s.lastHeartbeat;
        tele.shards.push_back(st);
    }

    // ----------------------------------------------------------- merge
    // Workers tag each row "<global-job-index> <json>"; rows are
    // placed by tag, checked for coverage, and emitted untagged in
    // global job order — the exact writeJsonRows stream of the full
    // matrix.
    std::vector<std::string> rows(total_jobs);
    std::vector<bool> seen(total_jobs, false);
    std::vector<uint64_t> auditDigests(cfg.audit ? total_jobs : 0, 0);
    std::vector<bool> auditSeen(cfg.audit ? total_jobs : 0, false);
    for (const auto &s : shards) {
        size_t pos = 0;
        while (pos < s.output.size()) {
            size_t eol = s.output.find('\n', pos);
            if (eol == std::string::npos)
                eol = s.output.size();
            std::string line = s.output.substr(pos, eol - pos);
            pos = eol + 1;
            if (line.empty())
                continue;
            if (cfg.audit && line.compare(0, 7, "KILOAUD") == 0) {
                // Audited workers follow each row with a digest
                // line; it is merged like a row (ownership-checked,
                // duplicate-checked) but reported separately.
                size_t aidx = 0;
                uint64_t digest = 0;
                if (!parseAuditLine(line, &aidx, &digest))
                    throw ShardError(
                        "shard " + std::to_string(s.shard) +
                        " emitted a malformed KILOAUD line: " + line);
                if (aidx >= total_jobs ||
                    aidx % shard_count != s.shard)
                    throw ShardError(
                        "shard " + std::to_string(s.shard) +
                        " emitted a KILOAUD digest for job " +
                        std::to_string(aidx) + ", which it does not "
                        "own");
                if (auditSeen[aidx])
                    throw ShardError(
                        "duplicate KILOAUD digest for job " +
                        std::to_string(aidx));
                auditSeen[aidx] = true;
                auditDigests[aidx] = digest;
                continue;
            }
            size_t sep = line.find(' ');
            if (sep == std::string::npos || sep == 0 ||
                line.find_first_not_of("0123456789") != sep) {
                throw ShardError("shard " + std::to_string(s.shard) +
                                 " emitted a malformed row: " + line);
            }
            size_t idx = size_t(
                std::strtoull(line.substr(0, sep).c_str(), nullptr,
                              10));
            if (idx >= total_jobs)
                throw ShardError("shard " + std::to_string(s.shard) +
                                 " emitted job index " +
                                 std::to_string(idx) +
                                 " outside the " +
                                 std::to_string(total_jobs) +
                                 "-job matrix");
            if (idx % shard_count != s.shard)
                throw ShardError("shard " + std::to_string(s.shard) +
                                 " emitted job " +
                                 std::to_string(idx) +
                                 ", which shard " +
                                 std::to_string(idx % shard_count) +
                                 " owns");
            if (seen[idx])
                throw ShardError("duplicate row for job " +
                                 std::to_string(idx));
            seen[idx] = true;
            rows[idx] = line.substr(sep + 1);
        }
    }
    for (size_t i = 0; i < total_jobs; ++i) {
        if (!seen[i])
            throw ShardError("no row for job " + std::to_string(i) +
                             " (shard " +
                             std::to_string(i % shard_count) + ")");
        if (cfg.audit && !auditSeen[i])
            throw ShardError("no KILOAUD digest for job " +
                             std::to_string(i) + " (shard " +
                             std::to_string(i % shard_count) + ")");
    }

    // ------------------------------------- cross-attempt audit check
    // Any job that completed under more than one process — reported
    // by a failed attempt AND by the attempt that won the merge —
    // must carry the same rolling state digest in both; anything
    // else means a retry silently computed different architectural
    // state, which no amount of row-level merging can be trusted
    // over.
    if (cfg.audit) {
        for (const auto &s : shards) {
            for (const auto &[idx, digest] : s.priorAudit) {
                // A crashed process's line that parses but names a
                // job outside this shard is noise, not evidence.
                if (idx >= total_jobs || idx % shard_count != s.shard)
                    continue;
                if (digest != auditDigests[idx])
                    throw ShardError(
                        "audit digest mismatch for job " +
                        std::to_string(idx) + ": a failed attempt "
                        "of shard " + std::to_string(s.shard) +
                        " reported " + hexDigest(digest) +
                        ", the merged attempt reported " +
                        hexDigest(auditDigests[idx]) +
                        " — retried work did not reproduce the same "
                        "architectural state");
                ++tele.auditCrossChecked;
            }
        }
        tele.auditDigests = auditDigests;
    }

    std::string merged;
    for (const auto &row : rows) {
        merged += row;
        merged += '\n';
    }
    // Digest lines after the rows, in job order — the exact stream
    // an audited --single run prints, so CI byte-diffs the two.
    if (cfg.audit) {
        for (size_t i = 0; i < total_jobs; ++i) {
            merged += "KILOAUD " + std::to_string(i) + " " +
                      hexDigest(auditDigests[i]) + "\n";
        }
    }
    return merged;
}

#else // !KILO_SHARD_HAVE_FORK

std::string
Orchestrator::run()
{
    throw ShardError("process-level sweep sharding requires a POSIX "
                     "platform (fork/exec/pipe)");
}

#endif

} // namespace kilo::shard
