/**
 * @file
 * Top-level simulation driver: one (machine, workload, memory) run.
 *
 * The one-shot entry point:
 *
 *     auto result = sim::Simulator::run(
 *         sim::MachineConfig::dkip2048(), "swim",
 *         mem::MemConfig::mem400(), sim::RunConfig());
 *     std::printf("IPC %.2f\n", result.ipc);
 *
 * Simulator::run is exact — every instruction of the measured region
 * in detail — and a thin wrapper over sim::Session
 * (src/sim/session.hh), the stepwise run object to use when a run
 * must be sampled mid-flight, paced against a wall clock, or aborted
 * on a cycle deadline. Sampled estimates come from
 * sample::runSampled (src/sample/sampled_run.hh).
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/core_stats.hh"
#include "src/core/pipeline_base.hh"
#include "src/mem/hierarchy.hh"
#include "src/obs/audit.hh"
#include "src/sim/config.hh"
#include "src/stats/snapshot.hh"
#include "src/wload/workload.hh"

namespace kilo::sim
{

/** Length and instrumentation of a simulation. */
struct RunConfig
{
    uint64_t warmupInsts = 20000;   ///< committed, stats then reset
    uint64_t measureInsts = 100000; ///< committed, measured region

    /**
     * Measured-region cycle deadline; 0 means unlimited. A run whose
     * measured region reaches this many cycles before committing
     * measureInsts stops and reports RunResult::aborted — the per-job
     * timeout SweepEngine matrices need for cluster-scale sweeps.
     * Idle skips stop at the deadline, so an aborted region is
     * exactly maxCycles long.
     */
    uint64_t maxCycles = 0;

    /**
     * Interval statistics sampling period in committed instructions;
     * 0 disables. When set, the Session records a stats::IntervalSample
     * (cumulative snapshot + per-interval IPC) every intervalInsts
     * committed instructions of the measured region —
     * RunResult::intervals, emitted as JSONL by writeIntervalRows().
     * Sampling does not perturb timing.
     */
    uint64_t intervalInsts = 0;

    /** Behaviour clusters (= representative intervals simulated)
     *  of a sample::runSampled run, which also reads intervalInsts
     *  as its sampling interval (0 picks measureInsts / 50).
     *  Exact runs ignore it. */
    uint32_t numClusters = 8;

    /**
     * Determinism-audit cadence in committed instructions; 0 (the
     * default) disables the audit plane entirely. When set, the
     * Session records one obs::AuditRecord — committed instructions,
     * absolute cycle, a digest of the complete checkpointable state
     * plus every registered statistic, and the rolling chain digest —
     * every auditIntervalInsts committed instructions of the measured
     * region (RunResult::audit, written to disk as a KILOAUD stream
     * by tools/kilodiff). Zero-perturbation pinned like the other
     * observability planes: the fold reads state, never changes it.
     * Ignored by sample::runSampled (a sampled run estimates; there
     * is no exact state trajectory to audit).
     */
    uint64_t auditIntervalInsts = 0;

    /** Short preset for wide parameter sweeps. */
    static RunConfig
    sweep()
    {
        RunConfig r;
        r.warmupInsts = 10000;
        r.measureInsts = 40000;
        return r;
    }
};

/**
 * Outcome of one run.
 *
 * The authoritative payload is `snapshot` — the self-describing
 * stats::Registry snapshot every component contributed to; JSONL rows
 * are generated from it generically. Read any statistic by name:
 * `result.snapshot.value("l2_misses")`.
 */
struct RunResult
{
    std::string machine;
    std::string workload;
    double ipc = 0.0;
    core::CoreStats stats;

    /** True when RunConfig::maxCycles expired before measureInsts
     *  committed; the stats cover the truncated region. */
    bool aborted = false;

    /** Every registered stat at the end of the run. */
    stats::Snapshot snapshot;

    /** Interval samples (RunConfig::intervalInsts; empty when off). */
    std::vector<stats::IntervalSample> intervals;

    /** Audit records (RunConfig::auditIntervalInsts; empty when
     *  off). One per audit boundary of the measured region. */
    std::vector<obs::AuditRecord> audit;

    /** Rolling chain digest over `audit` (obs::AuditBasis when the
     *  plane is off) — the one-word determinism witness a sharded
     *  worker ships back instead of the whole stream. */
    uint64_t auditRolling = obs::AuditBasis;
};

/**
 * Resolve @p workload_name exactly as Session's by-name constructor
 * does: a "trace:<path>" name replays that KILOTRC file (the row's
 * workload name then comes from the trace header), any other name
 * picks a synthetic preset. The sampling layer and benches use this
 * to walk the same instruction stream a Session would run.
 */
wload::WorkloadPtr openWorkload(const std::string &workload_name);

/** Builds cores and executes runs. */
class Simulator
{
  public:
    /** Instantiate the core described by @p machine. */
    static std::unique_ptr<core::PipelineBase>
    makeCore(const MachineConfig &machine, wload::Workload &workload,
             const mem::MemConfig &mem_config);

    /** Run @p workload_name on @p machine, exactly, and collect
     *  statistics. */
    static RunResult run(const MachineConfig &machine,
                         const std::string &workload_name,
                         const mem::MemConfig &mem_config,
                         const RunConfig &run_config = RunConfig());

    /** Same, with a caller-provided workload instance. */
    static RunResult run(const MachineConfig &machine,
                         wload::Workload &workload,
                         const mem::MemConfig &mem_config,
                         const RunConfig &run_config = RunConfig());
};

} // namespace kilo::sim

