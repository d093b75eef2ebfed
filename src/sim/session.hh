/**
 * @file
 * Stepwise run object: one (machine, workload, memory) simulation
 * with explicit phases.
 *
 * Where Simulator::run is fire-and-forget, a Session lets the caller
 * interleave its own logic with the simulation — sample statistics
 * mid-flight, pace a run against a wall clock, enforce deadlines, or
 * abort cleanly:
 *
 *     sim::Session session(sim::MachineConfig::dkip2048(), "swim",
 *                          mem::MemConfig::mem400(), rc);
 *     session.warmup();
 *     while (!session.finished()) {
 *         session.step(10000);                   // <= 10k cycles
 *         auto snap = session.snapshot();        // sample anything
 *         if (wallClockExpired())
 *             break;                             // abort cleanly
 *     }
 *     sim::RunResult result = session.finish();
 *
 * Stepping is exact: a run advanced via any sequence of step() /
 * runFor() calls commits the same instructions over the same cycles
 * as one-shot Simulator::run — the engine's tick sequence only ever
 * pauses at the boundaries, it never diverges (pinned bit-identical
 * by tests/test_session.cpp).
 *
 * The Session owns everything a run needs (workload or a borrowed
 * caller workload, core, arena, memory hierarchy), applies the
 * functional cache prewarm at construction, honours
 * RunConfig::maxCycles as a measured-region deadline (finished runs
 * report RunResult::aborted) and records stats::IntervalSamples every
 * RunConfig::intervalInsts committed instructions.
 */

#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "src/ckpt/serial.hh"
#include "src/obs/profiler.hh"
#include "src/sim/simulator.hh"

namespace kilo::sim
{

/** A constructed-once, stepwise simulation run. */
class Session
{
  public:
    /** Resolve @p workload_name (a preset or "trace:<path>", see
     *  openWorkload) and own the resulting workload. */
    Session(const MachineConfig &machine,
            const std::string &workload_name,
            const mem::MemConfig &mem_config,
            const RunConfig &run_config = RunConfig());

    /** Borrow a caller-provided workload (not reset, not owned). */
    Session(const MachineConfig &machine, wload::Workload &workload,
            const mem::MemConfig &mem_config,
            const RunConfig &run_config = RunConfig());

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Run the warm-up region (RunConfig::warmupInsts) and reset
     * statistics. Idempotent; implied by the first advance if the
     * caller never calls it.
     */
    void warmup();

    /**
     * Advance the measured region by at most @p max_cycles cycles.
     * Returns the number of instructions committed by this call.
     * Idle skips stop at the cycle bound, so an unfinished run
     * pauses on it exactly, even inside a long memory stall.
     */
    uint64_t step(uint64_t max_cycles);

    /**
     * Advance the measured region until @p insts more instructions
     * commit (bounded by measureInsts and the deadline). Returns the
     * number actually committed by this call.
     */
    uint64_t runFor(uint64_t insts);

    /** Advance to completion (measureInsts or the deadline). */
    void run();

    /** Measured region complete — target reached or aborted. */
    bool finished() const;

    /** A RunConfig::maxCycles or maxWallMs deadline expired before
     *  the measured region completed. */
    bool aborted() const { return aborted_; }

    /** Cycles of the measured region so far (0 before warmup()). */
    uint64_t measuredCycles() const;

    /** Committed instructions of the measured region so far. */
    uint64_t measuredCommitted() const;

    /** Point-in-time values of every registered statistic. */
    stats::Snapshot snapshot() const;

    /** Interval samples recorded so far (RunConfig::intervalInsts). */
    const std::vector<stats::IntervalSample> &intervals() const
    {
        return intervals_;
    }

    /** Audit records recorded so far (RunConfig::auditIntervalInsts;
     *  the fourth observability plane, src/obs/audit.hh). */
    const std::vector<obs::AuditRecord> &auditRecords() const
    {
        return audit_;
    }

    /** Rolling audit chain digest (obs::AuditBasis before the first
     *  record / when the plane is off). */
    uint64_t auditRolling() const { return auditRolling_; }

    /**
     * Digest of the complete architectural state right now: every
     * byte checkpoint() would serialize, folded through a Digest-mode
     * ckpt::Sink, then every registered statistic. Allocation-free
     * and const — auditing never perturbs the run. Two Sessions agree
     * on stateDigest() iff their checkpoints and stats agree.
     */
    uint64_t stateDigest() const;

    /** The underlying core (structure inspection, registry). @{ */
    core::PipelineBase &core() { return *core_; }
    const core::PipelineBase &core() const { return *core_; }
    /** @} */

    /** The run's configuration. */
    const RunConfig &config() const { return rc; }

    /**
     * Attach a wall-time self-profiler (may be null to detach). The
     * session then accounts its warmup / measure / finish phases into
     * it. Purely observational: profiling never touches simulated
     * timing, and a detached session takes no clock reads at all.
     */
    void attachProfiler(obs::Profiler *p) { profiler = p; }

    /**
     * Collect the RunResult. Steals the interval samples; the Session
     * remains inspectable. Once the run is finished(), a later step()
     * or runFor() commits nothing and returns 0.
     */
    RunResult finish();

    /**
     * Capture the complete run state — machine and workload identity,
     * session phase, and every mutable byte of the core (arena,
     * hierarchy, predictor, queues, workload position) — as an
     * in-memory snapshot. restore() into a Session built with the
     * same machine/workload/memory configuration resumes
     * bit-identically: checkpoint-at-cycle-C-then-restore produces
     * the same stats row as running straight through (pinned by
     * tests/test_checkpoint.cpp). A mismatched machine or workload
     * throws ckpt::CheckpointError. Interval samples are not part of
     * the image; restore() clears them. @{
     */
    ckpt::Checkpoint checkpoint() const;
    void restore(const ckpt::Checkpoint &c);

    /** Same, through the on-disk KILOCKPT container (versioned,
     *  checksummed; see src/ckpt/serial.hh). */
    void saveCheckpoint(const std::string &path) const;
    void loadCheckpoint(const std::string &path);
    /** @} */

  private:
    /** Shared body: own @p own or borrow @p borrowed, build the core,
     *  prewarm and arm the audit flip. */
    Session(const MachineConfig &machine, wload::WorkloadPtr own,
            wload::Workload *borrowed, const mem::MemConfig &mem_config,
            const RunConfig &run_config);

    /** Advance toward @p target_committed, capped at @p cycle_cap
     *  (both absolute), recording intervals and the deadline abort. */
    void advance(uint64_t target_committed, uint64_t cycle_cap);

    void recordInterval();
    void recordAudit();

    /**
     * The checkpoint payload body, shared verbatim between
     * checkpoint() (Store sink) and stateDigest() (Digest sink) so
     * the audit plane hashes exactly what a checkpoint captures.
     */
    void serializePayload(ckpt::Sink &s) const;

    /** Absolute cycle the measured region must end by. */
    uint64_t deadlineCycle() const;

    /** The RunConfig::maxWallMs host-clock deadline passed. */
    bool wallExpired() const;

    std::string machineName;
    RunConfig rc;

    wload::WorkloadPtr owned;     ///< by-name constructor only
    wload::Workload *wl;          ///< always valid
    std::unique_ptr<core::PipelineBase> core_;

    bool warmedUp = false;
    bool aborted_ = false;

    /** Wall-clock anchor of RunConfig::maxWallMs (set at
     *  construction, so prewarm and warm-up count against it). */
    std::chrono::steady_clock::time_point wallStart =
        // kilolint: allow(nondeterminism) wall-deadline anchor
        std::chrono::steady_clock::now();

    uint64_t measureStartCycle = 0;   ///< absolute core cycle
    uint64_t nextIntervalAt = 0;      ///< committed insts, 0 = off
    uint64_t nextAuditAt = 0;         ///< committed insts, 0 = off
    uint64_t auditRolling_ = obs::AuditBasis;
    std::vector<stats::IntervalSample> intervals_;
    std::vector<obs::AuditRecord> audit_;
    obs::Profiler *profiler = nullptr;
};

} // namespace kilo::sim

