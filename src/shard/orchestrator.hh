/**
 * @file
 * Parent side of a multi-process sharded sweep.
 *
 * The Orchestrator turns one Manifest into N worker processes
 * (fork/exec of the kilosim_worker binary, one per shard), collects
 * their stdout through pipes, enforces a per-attempt wall-clock
 * deadline, retries failed shards, and merges the job-tagged rows
 * back into a single JSONL stream ordered by global job index — a
 * stream byte-identical to what a single-process
 * SweepEngine::run(manifest.jobs()) + writeJsonRows would produce
 * (pinned by tests/test_shard.cpp and the CI golden diff).
 *
 * Failure semantics (details in src/shard/DESIGN.md):
 *  - a worker that exits nonzero, dies on a signal, or overruns the
 *    deadline (SIGKILL) fails its attempt; the attempt's partial
 *    output is excluded from the merge wholesale;
 *  - a failed shard is retried with a fresh process up to
 *    maxAttempts total attempts, with a stderr-tail-bearing retry
 *    line logged on the parent's stderr;
 *  - a shard exhausting its attempts fails the sweep: remaining
 *    workers are killed and run() throws ShardError carrying the
 *    last attempt's stderr tail.
 *
 * Worker stderr is piped to the parent. With
 * OrchestratorConfig::progress, workers are spawned with --heartbeat;
 * their KILOHB lines (src/obs/heartbeat.hh) are absorbed into
 * per-shard telemetry and rendered as a merged live progress stream
 * on the parent's stderr. Every other stderr line is forwarded
 * through verbatim and its tail kept for failure reports.
 *
 * Workers are started with one sweep thread each
 * (KILO_SWEEP_THREADS=1): process-level sharding replaces thread
 * fan-out. All workers replaying a common trace share its pages
 * through the mmap reader and the page cache.
 */

#pragma once

#include <string>
#include <vector>

#include "src/obs/heartbeat.hh"
#include "src/shard/manifest.hh"

namespace kilo::shard
{

/** Process-level knobs of one sharded sweep. */
struct OrchestratorConfig
{
    /** Worker binary (tools/kilosim_worker); typically argv[0] when
     *  the orchestrator runs inside that same binary. */
    std::string workerPath;

    /** Extra argv entries inserted before --shard (test hooks). */
    std::vector<std::string> workerArgs;

    /** Worker process count; clamped to the job count. */
    uint32_t shards = 4;

    /** Per-attempt wall-clock deadline in ms; 0 disables. An
     *  overrunning worker is SIGKILLed and the attempt fails. */
    uint64_t workerDeadlineMs = 0;

    /** Total spawn attempts per shard (1 = no retry). */
    uint32_t maxAttempts = 2;

    /** Spawn workers with --heartbeat and render their KILOHB
     *  telemetry as a merged live progress stream on the parent's
     *  stderr. */
    bool progress = false;

    /**
     * Spawn workers with --audit: every job runs under the
     * determinism-audit plane (src/obs/audit.hh) and reports its
     * final rolling state digest on a KILOAUD line. The orchestrator
     * then (a) cross-checks the digest of every job that completed
     * in more than one attempt of its shard — a retried worker that
     * silently computes different state is a hard ShardError carrying
     * both digests — and (b) appends the KILOAUD lines, in job order,
     * after the merged rows (the stream an audited --single run
     * prints, so the two remain byte-diffable).
     */
    bool audit = false;
};

/** What the orchestrator observed about one shard. */
struct ShardTelemetry
{
    uint32_t shard = 0;
    uint32_t attempts = 0;        ///< processes spawned (>= 1)
    bool deadlineKilled = false;  ///< any attempt overran and died
    uint64_t wallMs = 0;          ///< wall time of the final attempt
    bool sawHeartbeat = false;
    obs::Heartbeat lastHeartbeat; ///< valid when sawHeartbeat
};

/** Sweep-level telemetry assembled from a finished run(). */
struct SweepTelemetry
{
    uint32_t retries = 0;
    uint32_t deadlineKills = 0;
    std::vector<ShardTelemetry> shards;

    /** Final rolling audit digest per job of the full matrix
     *  (OrchestratorConfig::audit runs only; empty otherwise). */
    std::vector<uint64_t> auditDigests;

    /** Jobs whose digest was verified against an earlier attempt's
     *  (i.e. the job completed under >= 2 processes and agreed). */
    uint32_t auditCrossChecked = 0;
};

/** Spawns, supervises and merges one sharded sweep. */
class Orchestrator
{
  public:
    Orchestrator(Manifest manifest, OrchestratorConfig config);

    /**
     * Execute the sweep: spawn every shard, supervise to completion,
     * merge. Returns the merged JSONL stream (one row per job of the
     * full matrix, global job order). Throws ShardError when a shard
     * exhausts its attempts, a worker emits malformed rows, or the
     * platform cannot spawn processes.
     */
    std::string run();

    /** Shard attempts beyond the first, across all shards. */
    uint32_t retries() const { return nRetries; }

    /** Workers killed for overrunning the deadline. */
    uint32_t deadlineKills() const { return nDeadlineKills; }

    /** Per-shard telemetry of the last run() (empty before it). */
    const SweepTelemetry &telemetry() const { return tele; }

  private:
    Manifest manifest;
    OrchestratorConfig cfg;
    uint32_t nRetries = 0;
    uint32_t nDeadlineKills = 0;
    SweepTelemetry tele;
};

} // namespace kilo::shard

