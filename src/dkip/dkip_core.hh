/**
 * @file
 * The Decoupled KILO-Instruction Processor (D-KIP) — the paper's
 * primary contribution.
 *
 * Structure (paper Figures 5-8):
 *   - Cache Processor (CP): the inherited out-of-order core with an
 *     Aging-ROB — entries drain past the Analyze stage a fixed ROB
 *     timer after decode instead of waiting to commit.
 *   - Analyze: classifies each instruction by execution locality
 *     using the Low-Locality Bit Vector (LLBV); low-locality
 *     instructions divert to an LLIB with at most one READY operand
 *     parked in the banked LLRF.
 *   - LLIBs: two FIFO buffers (integer, FP) with no issue logic.
 *   - Memory Processors (MP): two simple Future-File machines with
 *     small reservation queues (in-order by default) that execute the
 *     low-locality slices when their feeding loads complete.
 *   - Address Processor: the shared LSQ + 2 global memory ports the
 *     base pipeline already models; completed long-latency load
 *     values flow to the MPs through per-LLIB value FIFOs.
 *   - Checkpoint stack: selective checkpoints at LLIB-resident
 *     branches; a misprediction resolving in the MP recovers the full
 *     machine (CP + LLIBs + MPs) through its checkpoint.
 *
 * The Aging-ROB, Analyze, LLBV and checkpoint recovery are the
 * mechanism KILO shares (AgingRobCore); this class adds the slow lane
 * behind it: the LLIB/LLRF and AP-window insert, Extract, and the
 * MP/AP issue.
 */

#pragma once

#include "src/dkip/aging_rob_core.hh"
#include "src/dkip/llib.hh"
#include "src/dkip/llrf.hh"

namespace kilo::dkip
{

/** Parameters specific to the decoupled machine. */
struct DkipParams
{
    /** Cache Processor parameters (Table 2 defaults). */
    core::CoreParams cp;

    int robTimer = 16;            ///< aging cycles before Analyze
    int analyzeWidth = 4;

    size_t llibCapacity = 2048;   ///< entries per LLIB
    int llibExtractRate = 4;      ///< extractions per LLIB per cycle

    int llrfBanks = 8;
    int llrfRegsPerBank = 256;

    size_t mpIqSize = 20;         ///< MP reservation-queue entries
    core::SchedPolicy mpPolicy = core::SchedPolicy::InOrder;
    int mpIssueWidth = 4;

    size_t checkpointCapacity = 16;
    int mpRecoveryExtraPenalty = 8;  ///< checkpoint restore cost

    core::FuConfig mpIntFus = core::FuConfig::intMemProcessor();
    core::FuConfig mpFpFus = core::FuConfig::fpMemProcessor();

    /** The D-KIP-2048 configuration evaluated in the paper. */
    static DkipParams dkip2048();
};

/** The decoupled KILO-instruction processor. */
class DkipCore : public AgingRobCore
{
  public:
    DkipCore(const DkipParams &params, wload::Workload &workload,
             const mem::MemConfig &mem_config);

  protected:
    void tick() override;
    bool insertSlowLane(InstRef ref) override;
    void onSquashInst(InstRef inst) override;
    void saveDerived(ckpt::Sink &s) const override;
    void restoreDerived(ckpt::Source &s) override;

    void stageExtract();
    void stageIssueDecoupled();

  private:
    bool hasReadyOperand(const core::DynInst &inst) const;
    void extractFrom(Llib &llib, Llrf &llrf, core::IssueQueue &mpq);
    void trackOccupancy();

    DkipParams dprm;

    Llib llibInt;
    Llib llibFp;
    Llrf llrfInt;
    Llrf llrfFp;

    core::IssueQueue mpIntQ;
    core::IssueQueue mpFpQ;
    /**
     * Address Processor scheduling window: low-locality loads and
     * stores leave the LLIB straight into the decoupled LSQ's
     * control, which issues them over the global memory ports as
     * soon as their address operand is available (paper 3.2:
     * "long-latency loads are executed in the address processor").
     */
    core::IssueQueue apQ;
    core::FuPool mpIntFus;
    core::FuPool mpFpFus;
};

} // namespace kilo::dkip

