/**
 * @file
 * Shared cycle-level pipeline engine.
 *
 * All three machines are built on this base, which owns the
 * instruction arena, the front end, register scoreboard, LSQ, memory
 * hierarchy, completion event wheel, the squash-replay recovery
 * machinery and the table of issue queues (whose per-cycle reset and
 * ready count it walks itself). Subclasses own the instruction window
 * policy: what gates dispatch, which queues issue, and what happens
 * when an instruction reaches the head of the ROB. The class tree:
 *
 *   PipelineBase
 *     core::OooCore            ROB, int/FP issue queues, dispatch
 *       dkip::AgingRobCore     aging ROB, LLBV, Analyze, checkpoints
 *         kilo_proc::KiloCore  slow lane = out-of-order SLIQ
 *         dkip::DkipCore       slow lane = LLIBs + MPs, AP window
 *
 * The engine is event assisted: wakeup is push-based (producers wake
 * dependents), and when a cycle performs no work and no instruction
 * is ready, simulation jumps to the next deadline: a completion
 * event, the fetch redirect, the fetch-buffer head's front-end
 * delay, the aging-ROB timer, the armed audit flip, or the caller's
 * cycle limit. Only deadlines at or after the current cycle count. A
 * passed one belongs to a stage blocked by a full structure, and such
 * a structure is freed only by a completion event or a ready
 * instruction, which the skip already waits for. This keeps 400-1000
 * cycle memory stalls cheap to simulate. The skip is exact: the
 * skipped cycles are charged to the stall counters a stalled cycle
 * bumps (commit slots, dispatch_blocked_*, the Analyze stalls), and
 * the state after it is byte-identical to ticking every cycle
 * (pinned by tests/test_idle_skip.cpp).
 *
 * Instruction lifetime: every DynInst is allocated from the per-core
 * InstArena at fetch and recycled at commit (or at LSQ release for
 * entries that commit while still resident) or at squash. Steady
 * state runs allocation-free; all cross-references are
 * generation-checked handles.
 */

#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "src/ckpt/serial.hh"
#include "src/core/core_stats.hh"
#include "src/core/dyn_inst.hh"
#include "src/core/fetch_engine.hh"
#include "src/core/fu_pool.hh"
#include "src/core/inst_arena.hh"
#include "src/core/issue_queue.hh"
#include "src/core/lsq.hh"
#include "src/core/params.hh"
#include "src/core/scoreboard.hh"
#include "src/mem/hierarchy.hh"
#include "src/obs/timeline.hh"
#include "src/stats/registry.hh"
#include "src/util/event_wheel.hh"
#include "src/util/ring_deque.hh"
#include "src/wload/trace_window.hh"
#include "src/wload/workload.hh"

namespace kilo::core
{

/** Abstract cycle-level core. */
class PipelineBase
{
  public:
    PipelineBase(const CoreParams &params, wload::Workload &workload,
                 const mem::MemConfig &mem_config);
    virtual ~PipelineBase() = default;

    PipelineBase(const PipelineBase &) = delete;
    PipelineBase &operator=(const PipelineBase &) = delete;

    /** Simulate until @p num_insts more instructions commit. */
    void run(uint64_t num_insts);

    /**
     * Simulate until @p target_committed total instructions have
     * committed or the current cycle reaches @p cycle_limit,
     * whichever comes first; an idle skip stops at @p cycle_limit
     * rather than jump past it. The tick sequence is identical to
     * run()'s — pausing at a cycle boundary and resuming is
     * bit-equivalent to running straight through — which is what
     * makes sim::Session stepping exact.
     */
    void runUntil(uint64_t target_committed, uint64_t cycle_limit);

    /** Simulate exactly @p n cycles (no idle skipping; the reference
     *  idle skipping must match). */
    void runCycles(uint64_t n);

    /** Statistics of the measured region. */
    CoreStats &stats() { return st; }
    const CoreStats &stats() const { return st; }

    /**
     * Self-describing statistics registered by this core's components
     * (base pipeline, memory hierarchy, decoupled structures).
     */
    const stats::Registry &statsRegistry() const { return statsReg; }

    /** Data-memory hierarchy. */
    mem::MemoryHierarchy &memory() { return mem_; }
    const mem::MemoryHierarchy &memory() const { return mem_; }

    /** Zero statistics after warm-up; microarchitectural state and
     *  cache contents are preserved. */
    void resetStats();

    /** Current cycle. */
    uint64_t cycle() const { return now; }

    /** Configuration. */
    const CoreParams &params() const { return prm; }

    /** Number of instructions currently in flight. */
    size_t inFlight() const { return globalOrder.size(); }

    /** Instruction arena (occupancy and recycling inspection). */
    const InstArena &instArena() const { return arena; }

    /**
     * Attach (or detach, with null) an instruction-event timeline
     * (src/obs/timeline.hh). While attached, every lifecycle point —
     * fetch, rename, issue, complete, commit, squash, slow-lane
     * divert, checkpoint create/restore — is recorded into the ring.
     * Recording is pure observation: it never changes the simulated
     * schedule or any statistic, and with no timeline attached (the
     * default) every site is a single null test, so runs are
     * bit-identical either way (pinned by tests/test_obs.cpp). The
     * timeline must outlive the core or be detached first.
     */
    void attachTimeline(obs::Timeline *t) { timeline = t; }

    /**
     * Arm the test-only determinism-audit divergence seed: at the
     * first runUntil() iteration whose cycle reaches @p cycle, XOR
     * @p mask into the fetch global history, exactly once (an armed
     * flip is an idle-skip deadline, so that is @p cycle). Cycle 0
     * disarms. Only the fired/not-fired latch is checkpointed — the
     * arming itself is re-applied to every Session the audit
     * bisector builds (obs_audit::RunSpec::flipCycle), so a flipped
     * run and a clean run have identical state digests until the
     * flip actually executes (pinned by tests/test_audit.cpp).
     */
    void
    setDebugFlip(uint64_t cycle, uint64_t mask)
    {
        dbgFlipCycle = cycle;
        dbgFlipMask = mask;
    }

    /**
     * Serialize the complete mutable microarchitectural state —
     * cycle, statistics, arena, hierarchy, predictor, every queue —
     * in a fixed order. The workload stream position is stored as a
     * sequence number, not stream bytes: restoreState() repositions
     * the (deterministic) workload via reset + skip. Restoring and
     * continuing is bit-identical to never having paused (pinned by
     * tests/test_checkpoint.cpp). @{
     */
    void saveState(ckpt::Sink &s) const;
    void restoreState(ckpt::Source &s);
    /** @} */

    /** What functional fast-forward keeps warm. */
    enum class FfMode : uint8_t
    {
        Skip,  ///< advance the stream only (structures go stale)
        Warm,  ///< train caches and the branch predictor en route
    };

    /**
     * Run with fetch held until the pipeline is empty (everything in
     * flight commits or squashes). The cycle counter advances as the
     * machine drains; fetch resumes from the next unfetched sequence
     * afterwards.
     */
    void drain();

    /**
     * Functional fast-forward: drain, then advance the instruction
     * stream to sequence @p target_seq without timing simulation. In
     * Warm mode every skipped memory op touches the cache tags
     * (mem::MemoryHierarchy::warmAccess) and every skipped branch
     * trains the predictor and shifts the global history, so the
     * sampled interval that follows starts with warm structures; in
     * Skip mode the stream jumps block-at-a-time (trace replay skips
     * without decoding). No-op when @p target_seq is already behind
     * fetch.
     */
    void fastForward(uint64_t target_seq, FfMode mode);

  protected:
    /** One simulated cycle; subclasses order their stages here. */
    virtual void tick() = 0;

    /** Stages provided by the base. @{ */
    void stageCommit();
    void stageComplete();
    void stageFetch();
    /** @} */

    /** Per-cycle housekeeping: port counters and the cycle reset of
     *  every registered issue queue, in registration order. */
    void beginCycle();

    /** End-of-cycle housekeeping (LSQ retire, cycle advance). */
    void endCycle();

    /**
     * Subclass hooks: the commit, squash, branch-resolution and
     * recovery notifications, the recovery penalty, the idle-skip
     * deadline, and the subclass's checkpoint layout. Queue cycle
     * reset and the ready count are not hooks: they walk the queues
     * registered with registerIssueQueue(). @{
     */
    virtual void onCommitInst(InstRef inst) { (void)inst; }
    virtual void onSquashInst(InstRef inst) { (void)inst; }
    virtual void onBranchResolved(InstRef inst) { (void)inst; }
    virtual void onRecovered(InstRef branch) { (void)branch; }
    /** Extra redirect penalty for @p branch (checkpoint recovery). */
    virtual int recoveryExtraPenalty(InstRef branch) const
    {
        (void)branch;
        return 0;
    }
    /** Earliest timed deadline at or after the current cycle: the
     *  fetch-buffer head's front-end delay, plus the subclass's own
     *  (aging-ROB timer). UINT64_MAX when there is none. */
    virtual uint64_t nextTimedWake() const;
    /** Serialize / restore the subclass's own structures (ROB, issue
     *  queues, LLIBs, checkpoint stack, ...), called after the base
     *  state inside saveState()/restoreState(). */
    virtual void saveDerived(ckpt::Sink &s) const = 0;
    virtual void restoreDerived(ckpt::Source &s) = 0;
    /** @} */

    /** Services for subclasses. @{ */

    /**
     * Rename @p inst (wire producers), define its destination, append
     * it to the in-flight order and allocate its LSQ entry.
     */
    void dispatchCommon(InstRef inst);

    /** Schedule completion at now + @p latency. */
    void scheduleCompletion(InstRef inst, uint32_t latency);

    /**
     * Issue up to @p width instructions from @p iq using cluster
     * @p fus. Returns the number issued.
     */
    int issueFromQueue(IssueQueue &iq, FuPool &fus, int width);

    /** Make @p inst wait for @p producer (LSQ store dependence). */
    void addDependence(InstRef inst, InstRef producer);

    /**
     * The aging ROB drained @p inst (D-KIP/KILO Analyze pop).
     * Recycles the slot when commit already passed and no other
     * structure holds the entry.
     */
    void
    releaseAgingRobEntry(DynInst &inst)
    {
        inst.inRob = false;
        if (inst.retired && !inst.inLsq)
            arena.free(inst.self);
    }

    /** True when a global memory port is free this cycle. */
    bool memPortAvailable() const
    {
        return portsUsed < prm.memPorts;
    }

    /**
     * Enter @p iq into the queue table, assigning the id resident
     * instructions carry as DynInst::iqId. Subclass constructors
     * register every queue, in a fixed order, before any fetch.
     */
    void
    registerIssueQueue(IssueQueue &iq)
    {
        KILO_ASSERT(numIqs < MaxIqs, "issue-queue table full");
        iq.assignId(int8_t(numIqs));
        iqTable[numIqs++] = &iq;
    }

    /** Resolve a DynInst::iqId to its queue (null for -1). */
    IssueQueue *
    queueById(int8_t id) const
    {
        KILO_ASSERT(id < numIqs, "bad issue-queue id %d", id);
        return id >= 0 ? iqTable[id] : nullptr;
    }

    /** Record a timeline event when observability is attached; a
     *  single null test otherwise. */
    void
    obsEvent(obs::EventKind kind, uint64_t seq, uint64_t payload = 0,
             uint8_t a = 0)
    {
        if (timeline)
            timeline->record(now, kind, seq, payload, a);
    }

    /**
     * Machine-specific refinement of the base commit-slot stall
     * classification: D-KIP/KILO reclassify a head parked in a
     * slow-lane structure (LLIB, SLIQ, MP queues) as
     * StallReason::Decoupled.
     */
    virtual StallReason
    refineStallReason(const DynInst &head, StallReason r) const
    {
        (void)head;
        return r;
    }
    /** @p deadline if it has not passed yet, else UINT64_MAX. */
    uint64_t
    upcoming(uint64_t deadline) const
    {
        return deadline >= now ? deadline : UINT64_MAX;
    }
    /** @} */

    CoreParams prm;
    CoreStats st;
    stats::Registry statsReg;
    wload::Workload &workload;
    wload::TraceWindow trace;
    std::unique_ptr<pred::BranchPredictor> bp;
    InstArena arena;
    FetchEngine fetchEngine;
    mem::MemoryHierarchy mem_;
    Scoreboard scoreboard;
    Lsq lsq;
    EventWheel<InstRef> wheel;

    /** Every in-flight instruction in program order. */
    RingDeque<InstRef> globalOrder;

    /** Fetched, not yet dispatched. */
    RingDeque<InstRef> fetchBuffer;

    uint64_t now = 0;
    int portsUsed = 0;
    uint64_t activity = 0;     ///< work units this cycle

    /** Attached instruction-event ring; null (off) by default. */
    obs::Timeline *timeline = nullptr;

    /** Queue table indexed by DynInst::iqId. */
    static constexpr int MaxIqs = 8;
    IssueQueue *iqTable[MaxIqs] = {};
    int numIqs = 0;

  private:
    void registerBaseStats();

    /**
     * Classify why the commit head is not retiring this cycle
     * (Plane 2, src/obs/DESIGN.md). Called only when commit slots
     * went unused; stageCommit and idleSkip charge every unused slot
     * to the returned reason, which is what makes the
     * "sum(stall_*) + committed == commitWidth * cycles" invariant
     * exact. Non-const for the MSHR probe's lazy expiry only; never
     * changes timing or any statistic.
     */
    StallReason classifyStall();

    /** Ready-but-unissued instructions over every registered queue
     *  (idle-skip guard). */
    size_t totalReady() const;

    void completeInst(InstRef ref);
    void wakeDependents(DynInst &inst);
    void recoverFromBranch(InstRef branch);
    void squashYoungerThan(uint64_t seq);
    bool tryIssueInst(InstRef ref, IssueQueue &iq, FuPool &fus);
    void issueCommon(InstRef ref, IssueQueue &iq, uint32_t latency);
    void idleSkip(uint64_t limit);

    /**
     * The counters a stalled stage bumps once per cycle without
     * counting as activity. A skipped cycle repeats the last ticked
     * one, so idleSkip charges each the delta of that cycle, taken
     * against the snapshot beginCycle() keeps.
     */
    static constexpr uint64_t CoreStats::*PerCycleStalls[] = {
        &CoreStats::dispatchBlockedRob, &CoreStats::dispatchBlockedIq,
        &CoreStats::dispatchBlockedLsq, &CoreStats::analyzeStallCycles,
        &CoreStats::llibFullStalls,     &CoreStats::llrfFullStalls,
    };
    uint64_t perCycleSnap[std::size(PerCycleStalls)] = {};

    std::vector<InstRef> dueBuf;
    std::vector<InstRef> resolvedMispredicts;
    std::vector<InstRef> fetchScratch;
    uint64_t lastCommitCycle = 0;

    /** Test-only audit divergence seed (setDebugFlip). Only the
     *  fired latch is serialized; see saveState(). @{ */
    uint64_t dbgFlipCycle = 0;
    uint64_t dbgFlipMask = 1;
    bool dbgFlipDone = false;
    /** @} */

    /** Fetch gate for drain(): no new instruction enters while the
     *  pipeline empties ahead of a fast-forward. */
    bool fetchHold = false;
};

} // namespace kilo::core

