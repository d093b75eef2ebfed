/**
 * @file
 * Parallel sweep engine: fans a (machine × workload × memory) run
 * matrix out over a thread pool.
 *
 * Every run is fully isolated — its own workload generator, core,
 * instruction arena and memory hierarchy — so parallel execution is
 * bit-identical to serial execution. Results are written to
 * pre-assigned slots, which makes the output ordering deterministic
 * regardless of scheduling: jobs[i] always produces results[i].
 *
 *     sim::SweepEngine engine(4);
 *     auto jobs = sim::SweepEngine::matrix(
 *         {MachineConfig::dkip2048()}, sim::intSuite(),
 *         {mem::MemConfig::mem400()}, RunConfig());
 *     auto results = engine.run(jobs);
 *     sim::writeJsonRows(std::cout, results);
 */

#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/sim/simulator.hh"

namespace kilo::sim
{

/**
 * One cell of a sweep matrix.
 *
 * `workload` names a synthetic preset ("swim") or a recorded trace
 * ("trace:/path/to/file.ktrc" — see src/trace/), so a matrix can mix
 * generated and captured workloads freely.
 */
struct SweepJob
{
    MachineConfig machine;
    std::string workload;
    mem::MemConfig mem;
    RunConfig run;
};

/** Thread-pooled, deterministically-ordered run executor. */
class SweepEngine
{
  public:
    /**
     * @param num_threads worker count; 0 picks the value of the
     * KILO_SWEEP_THREADS environment variable or, failing that,
     * std::thread::hardware_concurrency().
     */
    explicit SweepEngine(unsigned num_threads = 0);

    /** Worker count this engine dispatches over. */
    unsigned threads() const { return numThreads; }

    /**
     * Execute every job; results[i] corresponds to jobs[i]. Runs
     * serially (no threads spawned) when the engine has one worker
     * or there is one job.
     */
    std::vector<RunResult> run(const std::vector<SweepJob> &jobs) const;

    /**
     * Streaming form of run() for any job body: run @p job(i) for
     * every i in [0, count) over the pool, and hand each result to
     * @p done(i, result) on the calling thread in index order, as
     * soon as it and every earlier result are ready — so a consumer
     * that prints rows or reports progress sees the same sequence at
     * any pool size. An exception from a job is rethrown here when
     * its turn to be delivered comes, as is one from @p done, after
     * the pool has drained the jobs already started.
     */
    void runOrdered(size_t count,
                    const std::function<RunResult(size_t)> &job,
                    const std::function<void(size_t, RunResult &)>
                        &done) const;

    /**
     * Deterministic job→shard partitioning: the global job indices
     * owned by shard @p shard_index of @p shard_count. Round-robin
     * (job i belongs to shard i % count), so the machine-major matrix
     * ordering spreads each machine's jobs — the usual cost outliers
     * — across all shards instead of loading one of them. Shards are
     * disjoint and cover [0, num_jobs) by construction.
     */
    static std::vector<size_t> shardIndices(size_t num_jobs,
                                            uint32_t shard_index,
                                            uint32_t shard_count);

    /**
     * Build the row-major (machine-major, then workload, then memory)
     * job matrix the paper's figures sweep over.
     */
    static std::vector<SweepJob>
    matrix(const std::vector<MachineConfig> &machines,
           const std::vector<std::string> &workloads,
           const std::vector<mem::MemConfig> &mems,
           const RunConfig &run_config);

    /**
     * Memory-major variant of matrix(): the memory axis is the
     * OUTERMOST loop (then machine, then workload), so results group
     * by memory point the way ablation studies over hierarchy
     * parameters read their tables. One call replaces the
     * one-matrix-per-memory-point loop those studies used to need.
     */
    static std::vector<SweepJob>
    matrixMemMajor(const std::vector<MachineConfig> &machines,
                   const std::vector<std::string> &workloads,
                   const std::vector<mem::MemConfig> &mems,
                   const RunConfig &run_config);

    /**
     * Same matrix from names alone — machines through
     * MachineConfig::byName ("r10-64", "kilo", "dkip", ...), memories
     * through mem::MemConfig::byName ("mem-400", "l2-11", ...) —
     * which is how externally-described jobs (CLI arguments, sharded
     * sweep manifests) parse into runnable matrices. Workload names
     * pass through untouched (presets or "trace:<path>").
     */
    static std::vector<SweepJob>
    matrixByName(const std::vector<std::string> &machines,
                 const std::vector<std::string> &workloads,
                 const std::vector<std::string> &mems,
                 const RunConfig &run_config);

    /** Convenience: one machine over a suite on one hierarchy. */
    std::vector<RunResult>
    runSuite(const MachineConfig &machine,
             const std::vector<std::string> &suite,
             const mem::MemConfig &mem_config,
             const RunConfig &run_config) const;

  private:
    unsigned numThreads;
};

/**
 * One machine-readable result row (JSON object, single line),
 * generated generically from RunResult::snapshot: identity fields
 * (machine, workload) followed by every Row::Yes stat in registration
 * order. The key set and ordering are the stable JSONL schema pinned
 * by tools/stats_schema's golden dump.
 */
std::string runResultJson(const RunResult &result);

/** Emit every result as one JSON object per line (JSONL). */
void writeJsonRows(std::ostream &os,
                   const std::vector<RunResult> &results);

/**
 * Emit one JSONL row per stats::IntervalSample of @p result
 * (RunConfig::intervalInsts): identity fields, the interval index,
 * the per-interval cycle/instruction deltas and IPC (the IPC-over-
 * time series), then the cumulative row stats at the boundary.
 */
void writeIntervalRows(std::ostream &os, const RunResult &result);

} // namespace kilo::sim

