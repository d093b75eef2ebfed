#include "src/dkip/dkip_core.hh"

#include <algorithm>

namespace kilo::dkip
{

DkipParams
DkipParams::dkip2048()
{
    DkipParams p;
    p.cp.name = "dkip-2048";
    p.cp.robSize = 64;
    p.cp.intIqSize = 40;
    p.cp.fpIqSize = 40;
    p.cp.intPolicy = core::SchedPolicy::OutOfOrder;
    p.cp.fpPolicy = core::SchedPolicy::OutOfOrder;
    // Out-of-order-commit machines retire in checkpointed bulk; the
    // in-order accounting drain is widened so it never throttles the
    // decoupled back end.
    p.cp.commitWidth = 8;
    return p;
}

DkipCore::DkipCore(const DkipParams &params, wload::Workload &wl,
                   const mem::MemConfig &mem_config)
    : AgingRobCore(params.cp, wl, mem_config, params.robTimer,
                   params.analyzeWidth, params.checkpointCapacity,
                   params.mpRecoveryExtraPenalty),
      dprm(params),
      llibInt("llibInt", params.llibCapacity, arena),
      llibFp("llibFp", params.llibCapacity, arena),
      llrfInt(params.llrfBanks, params.llrfRegsPerBank),
      llrfFp(params.llrfBanks, params.llrfRegsPerBank),
      mpIntQ("mpIntQ", params.mpIqSize, params.mpPolicy, arena),
      mpFpQ("mpFpQ", params.mpIqSize, params.mpPolicy, arena),
      apQ("apQ", params.cp.lsqSize, core::SchedPolicy::OutOfOrder,
          arena),
      mpIntFus(params.mpIntFus),
      mpFpFus(params.mpFpFus)
{
    registerIssueQueue(mpIntQ);
    registerIssueQueue(mpFpQ);
    registerIssueQueue(apQ);

    // Decoupled-machine statistics: maintained here, so named and
    // described here (they only appear in the D-KIP stats schema).
    using stats::Row;
    auto &r = statsReg;
    r.counter("llib_inserted_int",
              "Low-locality instructions inserted into the int LLIB",
              &st.llibInsertedInt);
    r.counter("llib_inserted_fp",
              "Low-locality instructions inserted into the FP LLIB",
              &st.llibInsertedFp);
    r.counter("analyze_stall_cycles",
              "Cycles the Analyze stage stalled the aging-ROB drain",
              &st.analyzeStallCycles);
    r.counter("llrf_conflict_stalls",
              "Extractions replayed on an LLRF bank-port conflict",
              &st.llrfConflictStalls);
    r.counter("llib_full_stalls",
              "Analyze stalls because the target LLIB was full",
              &st.llibFullStalls);
    r.counter("llrf_full_stalls",
              "Analyze stalls because no LLRF register was free",
              &st.llrfFullStalls);
    r.counter("checkpoint_skips",
              "LLIB branches with no free checkpoint entry",
              &st.checkpointSkips);
    r.counter("checkpoints_taken", "Checkpoints taken at LLIB branches",
              &st.checkpointsTaken);
    r.counter("max_llib_instrs_int", "Peak int LLIB occupancy",
              &st.maxLlibInstrsInt);
    r.counter("max_llib_instrs_fp", "Peak FP LLIB occupancy",
              &st.maxLlibInstrsFp);
    r.counter("max_llib_regs_int", "Peak int LLRF registers allocated",
              &st.maxLlibRegsInt);
    r.counter("max_llib_regs_fp", "Peak FP LLRF registers allocated",
              &st.maxLlibRegsFp);
    r.gaugeInt("llib_int_occupancy", "Current int LLIB entries",
               [this] { return uint64_t(llibInt.size()); });
    r.gaugeInt("llib_fp_occupancy", "Current FP LLIB entries",
               [this] { return uint64_t(llibFp.size()); });
    r.gaugeInt("checkpoint_depth", "Live checkpoint-stack entries",
               [this] { return uint64_t(chkpt.size()); });
}

// ---------------------------------------------------------------------
// Slow-lane insert
// ---------------------------------------------------------------------

bool
DkipCore::hasReadyOperand(const core::DynInst &inst) const
{
    const core::DynInstCold &cold = arena.coldOf(inst);
    auto slot_ready = [&](int16_t reg, int slot) {
        if (reg == isa::NoReg)
            return false;
        // Stale handle == producer already left the pipeline, so the
        // operand value is available.
        const core::DynInst *prod =
            arena.tryGet(cold.producers[slot]);
        return !prod || prod->completed;
    };
    return slot_ready(inst.op.src1, 0) ||
           slot_ready(inst.op.src2, 1);
}

bool
DkipCore::insertSlowLane(InstRef ref)
{
    core::DynInst &inst = arena.get(ref);
    if (inst.op.isMem()) {
        // Memory operations never enter the LLIB: they have held an
        // LSQ entry since dispatch, and the Address Processor issues
        // them over the memory ports the moment their operands
        // arrive ("long-latency loads are executed in the address
        // processor", 3.2). This keeps independent miss chains
        // overlapped even though the LLIB is a FIFO.
        if (apQ.full())
            return false;
        parkInSlowLane(ref, 2);
        apQ.insert(ref);
        return true;
    }

    bool fp = inst.op.isFp();
    Llib &q = fp ? llibFp : llibInt;
    Llrf &rf = fp ? llrfFp : llrfInt;
    if (q.full()) {
        ++st.llibFullStalls;
        return false;
    }
    if (hasReadyOperand(inst) && !rf.tryAlloc(inst)) {
        ++st.llrfFullStalls;
        return false;
    }
    parkInSlowLane(ref, fp ? 1 : 0);
    inst.inLlib = true;
    q.push(ref);
    if (fp)
        ++st.llibInsertedFp;
    else
        ++st.llibInsertedInt;
    return true;
}

// ---------------------------------------------------------------------
// LLIB -> MP extraction
// ---------------------------------------------------------------------

void
DkipCore::extractFrom(Llib &llib, Llrf &llrf, core::IssueQueue &mpq)
{
    int budget = dprm.llibExtractRate;
    while (budget > 0 && !llib.empty()) {
        if (mpq.full())
            break;
        if (llib.headBlocked())
            break;
        InstRef ref = llib.front();
        core::DynInst &inst = arena.get(ref);
        if (inst.llrfBank >= 0 &&
            llrf.bankWrittenThisCycle(inst.llrfBank)) {
            // Single-ported bank being written by insertion this
            // cycle; retry next cycle.
            ++st.llrfConflictStalls;
            break;
        }
        llib.popFront();
        llrf.release(inst);
        inst.inLlib = false;
        mpq.insert(ref);
        --budget;
        ++activity;
    }
}

void
DkipCore::stageExtract()
{
    extractFrom(llibInt, llrfInt, mpIntQ);
    extractFrom(llibFp, llrfFp, mpFpQ);
}

// ---------------------------------------------------------------------
// Issue, squash, accounting
// ---------------------------------------------------------------------

void
DkipCore::stageIssueDecoupled()
{
    // Cache Processor first: the Address Processor's memory ports are
    // asymmetrically shared in the CP's favour (paper section 3.3).
    issueFromQueue(intIq, fus, prm.issueWidthInt);
    issueFromQueue(fpIq, fus, prm.issueWidthFp);
    issueFromQueue(apQ, mpIntFus, prm.memPorts);
    issueFromQueue(mpIntQ, mpIntFus, dprm.mpIssueWidth);
    issueFromQueue(mpFpQ, mpFpFus, dprm.mpIssueWidth);
}

void
DkipCore::onSquashInst(InstRef ref)
{
    AgingRobCore::onSquashInst(ref);
    core::DynInst &inst = arena.get(ref);
    if (inst.inLlib) {
        bool fp = inst.op.isFp();
        (fp ? llibFp : llibInt).notifySquashed(ref);
        (fp ? llrfFp : llrfInt).release(inst);
        inst.inLlib = false;
    } else if (inst.llrfBank >= 0) {
        (inst.op.isFp() ? llrfFp : llrfInt).release(inst);
    }
}

void
DkipCore::trackOccupancy()
{
    st.maxLlibInstrsInt =
        std::max(st.maxLlibInstrsInt, uint64_t(llibInt.size()));
    st.maxLlibInstrsFp =
        std::max(st.maxLlibInstrsFp, uint64_t(llibFp.size()));
    st.maxLlibRegsInt =
        std::max(st.maxLlibRegsInt, uint64_t(llrfInt.numAllocated()));
    st.maxLlibRegsFp =
        std::max(st.maxLlibRegsFp, uint64_t(llrfFp.numAllocated()));
}

void
DkipCore::tick()
{
    beginCycle();
    llrfInt.beginCycle();
    llrfFp.beginCycle();
    stageCommit();
    stageComplete();
    stageAnalyze();
    stageExtract();
    stageIssueDecoupled();
    stageDispatch();
    stageFetch();
    trackOccupancy();
    endCycle();
}

void
DkipCore::saveDerived(ckpt::Sink &s) const
{
    OooCore::saveDerived(s);
    llbv.save(s);
    llibInt.save(s);
    llibFp.save(s);
    llrfInt.save(s);
    llrfFp.save(s);
    mpIntQ.save(s);
    mpFpQ.save(s);
    apQ.save(s);
    mpIntFus.save(s);
    mpFpFus.save(s);
    chkpt.save(s);
}

void
DkipCore::restoreDerived(ckpt::Source &s)
{
    OooCore::restoreDerived(s);
    llbv.load(s);
    llibInt.load(s);
    llibFp.load(s);
    llrfInt.load(s);
    llrfFp.load(s);
    mpIntQ.load(s);
    mpFpQ.load(s);
    apQ.load(s);
    mpIntFus.load(s);
    mpFpFus.load(s);
    chkpt.load(s);
}

} // namespace kilo::dkip
