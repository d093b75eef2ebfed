/**
 * @file
 * Baseline out-of-order core (MIPS R10000 style).
 *
 * A conventional machine: ROB-gated dispatch, separate integer and FP
 * issue queues with selectable policy, in-order commit. Instances of
 * this class model R10-64, R10-256, R10-768 and the idealised
 * ROB-limited cores of the paper's Figures 1-3 limit study.
 */

#pragma once

#include "src/core/pipeline_base.hh"
#include "src/util/ring_deque.hh"

namespace kilo::core
{

/** Conventional out-of-order processor. */
class OooCore : public PipelineBase
{
  public:
    OooCore(const CoreParams &params, wload::Workload &workload,
            const mem::MemConfig &mem_config);

    /** ROB occupancy (tests). */
    size_t robOccupancy() const { return rob.size(); }

    /** Issue-queue occupancies (tests). @{ */
    size_t intIqOccupancy() const { return intIq.size(); }
    size_t fpIqOccupancy() const { return fpIq.size(); }
    /** @} */

  protected:
    void tick() override;
    void onCommitInst(InstRef inst) override;
    void onSquashInst(InstRef inst) override;
    void saveDerived(ckpt::Sink &s) const override;
    void restoreDerived(ckpt::Source &s) override;

    void stageDispatch();
    void stageIssue();

    /** Queue an instruction belongs to (loads/stores/branches are
     *  integer-side; FP arithmetic is FP-side). */
    IssueQueue &queueFor(const DynInst &inst);

    /** Sized for prm.robSize up front; dispatch stops at robSize,
     *  so the ring never grows. */
    RingDeque<InstRef> rob;
    IssueQueue intIq;
    IssueQueue fpIq;
    FuPool fus;
};

} // namespace kilo::core

