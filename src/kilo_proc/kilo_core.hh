/**
 * @file
 * Traditional KILO-instruction processor baseline (Cristal et al.,
 * HPCA 2004 — reference [9] of the paper).
 *
 * A centralised machine with a pseudo-ROB: the D-KIP's aging-ROB
 * mechanism (dkip::AgingRobCore), but long-latency slices move to
 * the Slow Lane Instruction Queue (SLIQ) — a large *out-of-order*
 * secondary queue with global wakeup that issues to the same
 * functional units. This
 * is the KILO-1024 configuration of the paper's Figure 9: better on
 * pointer chasing than the FIFO LLIB, but paying for a 1024-entry
 * CAM and the ephemeral-register machinery.
 */

#pragma once

#include "src/dkip/aging_rob_core.hh"

namespace kilo::kilo_proc
{

/** Parameters of the KILO baseline. */
struct KiloParams
{
    /** Front core (pseudo-ROB 64, 72-entry issue queues). */
    core::CoreParams cp;

    int robTimer = 16;          ///< pseudo-ROB drain timer
    int analyzeWidth = 4;
    size_t sliqCapacity = 1024;
    int sliqIssueWidth = 4;
    size_t checkpointCapacity = 16;
    int recoveryExtraPenalty = 8;

    /** The KILO-1024 configuration of Figure 9. */
    static KiloParams kilo1024();
};

/** Checkpointed out-of-order-commit processor with a SLIQ. */
class KiloCore : public dkip::AgingRobCore
{
  public:
    KiloCore(const KiloParams &params, wload::Workload &workload,
             const mem::MemConfig &mem_config);

  protected:
    void tick() override;
    bool insertSlowLane(InstRef ref) override;
    void saveDerived(ckpt::Sink &s) const override;
    void restoreDerived(ckpt::Source &s) override;

  private:
    KiloParams kprm;
    core::IssueQueue sliq;
};

} // namespace kilo::kilo_proc
