/**
 * @file
 * Sweep-shard worker / orchestration driver (src/shard/).
 *
 *     kilosim_worker [--shard I/N] [--heartbeat] [--audit] MANIFEST
 *         execute one shard of the manifest's sweep matrix and print
 *         one "<job-index> <json>" row per owned job on stdout (the
 *         tagged form the orchestrator merges). --shard overrides the
 *         manifest's own shard line. With --heartbeat the worker
 *         emits one KILOHB telemetry line on stderr after each job
 *         (src/obs/heartbeat.hh); the orchestrator parses these into
 *         its live progress stream. With --audit every job runs under
 *         the determinism-audit plane (src/obs/audit.hh; cadence =
 *         the manifest's `audit` directive, defaulting to measure/4)
 *         and each tagged row is followed by a
 *         "KILOAUD <job-index> <16-hex-rolling>" line carrying the
 *         job's final rolling state digest.
 *
 *     kilosim_worker --single [--audit] MANIFEST
 *         run the FULL matrix in this process and print the plain
 *         JSONL stream (runResultJson per job) — the single-process
 *         reference a sharded run must reproduce byte-for-byte. With
 *         --audit, the rows are followed by one KILOAUD line per job
 *         in job order — the same shape an audited orchestrated run
 *         merges to, so the two streams byte-diff whole.
 *
 *     kilosim_worker --orchestrate N [--deadline-ms D] [--progress]
 *                    [--audit] MANIFEST
 *         parent mode: spawn N copies of this binary (one per shard,
 *         --shard i/N), supervise, merge, and print the merged plain
 *         JSONL stream, which must equal --single. With --audit
 *         the children run audited, the parent cross-checks rolling
 *         digests across retried attempts (a silent divergence
 *         between two attempts of the same job is a hard error), and
 *         the merged stream ends with the KILOAUD lines in job order.
 *
 *     --crash-token PATH   (test hook, any mode)
 *         if PATH exists, unlink it and abort before doing any work —
 *         a deterministic crash-exactly-once switch the retry tests
 *         use.
 *
 *     --crash-after K   (test hook, shard mode)
 *         abort after emitting K rows — yields a failed attempt WITH
 *         harvestable partial output, which is how the orchestrator's
 *         cross-attempt digest check is exercised. Combined with
 *         --crash-token the deferred crash fires only in the process
 *         that claims the token (crash exactly once, then run clean);
 *         alone it fires in every attempt.
 *
 *     --flip-token PATH   (test hook, shard mode)
 *         if PATH exists, unlink it and XOR 1 into every KILOAUD
 *         digest THIS process prints: the claiming attempt reports
 *         different digests than any clean re-run of the same jobs,
 *         which must surface as an audit-digest mismatch. (A flip of
 *         the simulated state itself is kilodiff's --flip-cycle.)
 *
 * Shard mode and --single share one job loop: the slice's jobs run
 * through shard::Manifest::runJob (exact or sampled, per the
 * manifest) on a SweepEngine pool — KILO_SWEEP_THREADS threads, else
 * one per core — and each row is printed in job order as soon as it
 * and every earlier row are done. The orchestrator starts its
 * workers with KILO_SWEEP_THREADS=1, since its shards are already
 * the fan-out. Trace-backed jobs replay through the mmap reader, so
 * co-located workers share one file's pages.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "src/obs/heartbeat.hh"
#include "src/shard/orchestrator.hh"
#include "src/sim/sweep_engine.hh"

using namespace kilo;

namespace
{

/**
 * Path of this executable for re-exec. The orchestrator spawns
 * children with execv(), which does not search PATH, so a bare
 * argv[0] from a PATH-based invocation must be resolved first.
 */
std::string
selfPath(const char *argv0)
{
    if (std::strchr(argv0, '/'))
        return argv0;
#if defined(__linux__)
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
#endif
    return argv0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--shard I/N] [--heartbeat] [--audit] "
                 "MANIFEST\n"
                 "       %s --single [--audit] MANIFEST\n"
                 "       %s --orchestrate N [--deadline-ms D] "
                 "[--progress] [--audit] MANIFEST\n",
                 argv0, argv0, argv0);
    return 2;
}

/** One "KILOAUD <job-index> <16-hex>" digest line on stdout. */
void
printAuditLine(size_t job_index, uint64_t rolling)
{
    std::printf("KILOAUD %zu %016llx\n",
                job_index, (unsigned long long)rolling);
}

/**
 * Run the manifest's shard, printing each row in job order as soon
 * as it is ready — tagged "<job-index> <json>" in shard mode, plain
 * JSONL for --single (whose manifest is the whole matrix, shard 0/1).
 * Rows and digests are flushed per job, so a crashed attempt leaves
 * harvestable partial output. With a multi-thread pool a heartbeat's
 * last-job time is the gap since the previous row.
 */
int
runJobs(const shard::Manifest &manifest, bool single, bool heartbeat,
        bool audit, uint64_t crash_after, uint64_t digest_flip)
{
    auto jobs = manifest.jobs();
    auto indices = manifest.shardJobIndices();
    // --single prints its digests after all rows, in job order.
    std::vector<uint64_t> digests;
    using ClockMs = std::chrono::steady_clock;
    // kilolint: allow(nondeterminism) heartbeat wall-time anchor
    auto start = ClockMs::now();
    auto last = start;
    uint64_t insts_done = 0;
    auto run_job = [&](size_t k) {
        return manifest.runJob(jobs[indices[k]]);
    };
    auto print_row = [&](size_t k, sim::RunResult &result) {
        size_t job = indices[k];
        uint64_t digest = result.auditRolling ^ digest_flip;
        if (!single)
            std::printf("%zu ", job);  // the orchestrator's merge key
        std::printf("%s\n", sim::runResultJson(result).c_str());
        if (audit && single)
            digests.push_back(digest);
        else if (audit)
            printAuditLine(job, digest);
        std::fflush(stdout);
        if (crash_after && k + 1 >= crash_after) {
            std::fprintf(stderr, "kilosim_worker: --crash-after %llu "
                                 "reached, aborting\n",
                         (unsigned long long)crash_after);
            std::abort();
        }

        if (!heartbeat)
            return;
        // kilolint: allow(nondeterminism) heartbeat job timing
        auto t = ClockMs::now();
        auto ms = [](ClockMs::duration d) {
            return uint64_t(std::chrono::duration_cast<
                                std::chrono::milliseconds>(d)
                                .count());
        };
        insts_done += result.stats.committed;
        obs::Heartbeat hb;
        hb.shard = int(manifest.shardIndex);
        hb.jobsDone = k + 1;
        hb.jobsTotal = indices.size();
        hb.lastJob = int(job);
        hb.instsDone = insts_done;
        hb.elapsedMs = ms(t - start);
        hb.lastJobWallMs = ms(t - last);
        last = t;
        std::fprintf(stderr, "%s\n",
                     obs::serializeHeartbeat(hb).c_str());
        std::fflush(stderr);
    };
    sim::SweepEngine().runOrdered(indices.size(), run_job, print_row);
    for (size_t i = 0; i < digests.size(); ++i)
        printAuditLine(indices[i], digests[i]);
    return 0;
}

int
runOrchestrate(const shard::Manifest &manifest, const char *argv0,
               uint32_t shards, uint64_t deadline_ms, bool progress,
               bool audit)
{
    shard::OrchestratorConfig cfg;
    cfg.workerPath = selfPath(argv0);
    cfg.shards = shards;
    cfg.workerDeadlineMs = deadline_ms;
    cfg.progress = progress;
    cfg.audit = audit;
    shard::Orchestrator orch(manifest, cfg);
    std::string merged = orch.run();
    // kilolint: allow(raw-serialization) merged text to stdout pipe
    std::fwrite(merged.data(), 1, merged.size(), stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool single = false;
    bool orchestrate = false;
    bool heartbeat = false;
    bool progress = false;
    bool audit = false;
    uint32_t shards = 0;
    uint64_t deadline_ms = 0;
    uint64_t crash_after = 0;
    uint64_t digest_flip = 0;
    std::string shard_spec;
    std::string crash_token;
    std::string flip_token;
    std::string manifest_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--single") {
            single = true;
        } else if (arg == "--orchestrate") {
            orchestrate = true;
            shards = uint32_t(std::strtoul(value(), nullptr, 10));
        } else if (arg == "--deadline-ms") {
            deadline_ms = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--shard") {
            shard_spec = value();
        } else if (arg == "--heartbeat") {
            heartbeat = true;
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--audit") {
            audit = true;
        } else if (arg == "--crash-token") {
            crash_token = value();
        } else if (arg == "--crash-after") {
            crash_after = std::strtoull(value(), nullptr, 10);
        } else if (arg == "--flip-token") {
            flip_token = value();
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else if (manifest_path.empty()) {
            manifest_path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (manifest_path.empty() || (single && orchestrate) ||
        (orchestrate && shards == 0)) {
        return usage(argv[0]);
    }

    if (!crash_token.empty()) {
        if (std::remove(crash_token.c_str()) == 0) {
            // Deterministic crash-once hook: the first process to
            // claim the token dies abnormally; retries find it gone
            // and run. With --crash-after K the death is deferred
            // until K rows have been emitted, so the failed attempt
            // leaves harvestable partial output behind.
            if (!crash_after) {
                std::fprintf(stderr, "kilosim_worker: crash token %s "
                                     "claimed, aborting\n",
                             crash_token.c_str());
                std::abort();
            }
            std::fprintf(stderr,
                         "kilosim_worker: crash token %s claimed, "
                         "aborting after %llu row(s)\n",
                         crash_token.c_str(),
                         (unsigned long long)crash_after);
        } else {
            // Token already claimed: this process runs to completion.
            crash_after = 0;
        }
    }

    try {
        shard::Manifest manifest =
            shard::Manifest::load(manifest_path);
        if (!shard_spec.empty()) {
            shard::parseShardSpec(shard_spec, manifest.shardIndex,
                                  manifest.shardCount);
        }
        if (audit && !manifest.run.auditIntervalInsts) {
            // Default cadence: a few records per job. Set in the
            // manifest BEFORE the orchestrator re-serializes it, so
            // parent and children agree on the interval.
            manifest.run.auditIntervalInsts =
                std::max<uint64_t>(manifest.run.measureInsts / 4, 1);
        }
        if (!flip_token.empty() &&
            std::remove(flip_token.c_str()) == 0) {
            // Digest-flip-once hook: the claiming process reports
            // digests no clean attempt can reproduce.
            std::fprintf(stderr, "kilosim_worker: flip token %s "
                                 "claimed, flipping printed digests\n",
                         flip_token.c_str());
            digest_flip = 1;
        }
        if (orchestrate)
            return runOrchestrate(manifest, argv[0], shards,
                                  deadline_ms, progress, audit);
        if (single) {
            manifest.shardIndex = 0;
            manifest.shardCount = 1;
        }
        return runJobs(manifest, single, heartbeat, audit, crash_after,
                       digest_flip);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
