/**
 * @file
 * The aging-ROB machine shared by D-KIP and the KILO baseline.
 *
 * Both checkpointed out-of-order-commit machines of the paper's
 * Figure 9 are one mechanism with one difference. Entries drain past
 * the head of a small Aging-ROB a fixed timer after decode; the
 * Analyze stage classifies each drained instruction by execution
 * locality through the Low-Locality Bit Vector (LLBV); low-locality
 * instructions leave the front core for a slow lane, taking a
 * checkpoint at every slow-lane branch; and a misprediction resolved
 * in the slow lane recovers through that checkpoint. Only the slow
 * lane differs: D-KIP sends the instruction to a FIFO LLIB and the
 * Memory Processors (or, for memory operations, the Address
 * Processor window), KILO to an out-of-order SLIQ.
 *
 * This base owns, once:
 *   - the LLBV and the checkpoint stack;
 *   - the Analyze loop (stageAnalyze), including the rule that a load
 *     blocked by an older slow-lane store joins the slice;
 *   - the checkpoint-at-branch and park steps of a slow-lane insert
 *     (parkInSlowLane);
 *   - branch resolution, recovery penalty, LLBV restore on recovery
 *     and the aging-timer idle-skip deadline;
 *   - aging-ROB commit and the ROB part of squash;
 *   - the Decoupled refinement of commit-slot stall attribution.
 *
 * Each machine adds its slow lane: the insertSlowLane() hook, the
 * stages that drain the lane, squashing of its own structures, its
 * statistics and occupancy peaks, and its checkpoint layout
 * (saveDerived/restoreDerived, written field by field).
 */

#pragma once

#include "src/core/ooo_core.hh"
#include "src/dkip/checkpoint_stack.hh"
#include "src/util/bit_vector.hh"

namespace kilo::dkip
{

/** Aging-ROB front core with LLBV classification and checkpoints. */
class AgingRobCore : public core::OooCore
{
  public:
    using InstRef = core::InstRef;

    /** Checkpoint stack (tests). */
    const CheckpointStack &checkpoints() const { return chkpt; }

    /** Low-Locality Bit Vector, one bit per logical register. */
    const BitVector &lowLocalityBits() const { return llbv; }

  protected:
    /**
     * @p rob_timer cycles of aging before Analyze, at most
     * @p analyze_width instructions analyzed per cycle, a
     * @p checkpoint_capacity deep stack, and @p recovery_penalty
     * extra redirect cycles for a slow-lane misprediction covered by
     * a checkpoint (three times that when uncovered).
     */
    AgingRobCore(const core::CoreParams &cp, wload::Workload &workload,
                 const mem::MemConfig &mem_config, int rob_timer,
                 int analyze_width, size_t checkpoint_capacity,
                 int recovery_penalty);

    /** Drain the aging ROB head, classifying by execution locality. */
    void stageAnalyze();

    /**
     * Move the unissued low-locality head @p ref into the machine's
     * slow lane. Returns false, leaving it in place, when the lane
     * has no room; Analyze then stalls for this cycle.
     */
    virtual bool insertSlowLane(InstRef ref) = 0;

    /**
     * The common part of every slow-lane insert: take a checkpoint
     * if @p ref is a branch, erase it from its front-core issue
     * queue, mark its destination low-locality and flag it as
     * slow-lane work. @p lane is the Park event's lane code.
     */
    void parkInSlowLane(InstRef ref, uint8_t lane);

    void onCommitInst(InstRef inst) override;
    void onSquashInst(InstRef inst) override;
    void onBranchResolved(InstRef inst) override;
    void onRecovered(InstRef branch) override;
    int recoveryExtraPenalty(InstRef branch) const override;
    uint64_t nextTimedWake() const override;
    core::StallReason
    refineStallReason(const core::DynInst &head,
                      core::StallReason r) const override;

    BitVector llbv;
    CheckpointStack chkpt;

  private:
    bool sourcesLongLatency(const core::DynInst &inst) const;

    int robTimer;
    int analyzeWidth;
    int recoveryPenalty;
};

} // namespace kilo::dkip
