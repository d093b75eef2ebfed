#include "src/dkip/dkip_core.hh"

#include <algorithm>

#include "src/util/logging.hh"

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
    : core::OooCore(params.cp, wl, mem_config),
      dprm(params),
      llbv(isa::NumRegs),
      llibInt("llibInt", params.llibCapacity, arena),
      llibFp("llibFp", params.llibCapacity, arena),
      llrfInt(params.llrfBanks, params.llrfRegsPerBank),
      llrfFp(params.llrfBanks, params.llrfRegsPerBank),
      mpIntQ("mpIntQ", params.mpIqSize, params.mpPolicy, arena),
      mpFpQ("mpFpQ", params.mpIqSize, params.mpPolicy, arena),
      apQ("apQ", params.cp.lsqSize, core::SchedPolicy::OutOfOrder,
          arena),
      mpIntFus(params.mpIntFus),
      mpFpFus(params.mpFpFus),
      chkpt(params.checkpointCapacity)
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

void
DkipCore::beginCycleQueues()
{
    core::OooCore::beginCycleQueues();
    mpIntQ.beginCycle();
    mpFpQ.beginCycle();
    apQ.beginCycle();
    llrfInt.beginCycle();
    llrfFp.beginCycle();
}

size_t
DkipCore::totalReady() const
{
    return core::OooCore::totalReady() + mpIntQ.numReady() +
           mpFpQ.numReady() + apQ.numReady();
}

core::StallReason
DkipCore::refineStallReason(const core::DynInst &head,
                            core::StallReason r) const
{
    using R = core::StallReason;
    // A head sitting unissued in a slow-lane structure (LLIB FIFO,
    // MP reservation queue, AP window) is stalled on the decoupled
    // machinery itself — checkpointed slow-lane execution — not on
    // the CP's dataflow or issue bandwidth.
    if ((r == R::Depend || r == R::Issue) &&
        (head.inLlib || head.execInMp))
        return R::Decoupled;
    return r;
}

uint64_t
DkipCore::nextTimedWake() const
{
    // Only a head still aging is a deadline: once its timer has
    // passed, Analyze waits on a completion or a ready instruction.
    uint64_t wake = core::OooCore::nextTimedWake();
    if (!rob.empty()) {
        wake = std::min(wake,
                        upcoming(arena.cold(rob.front()).dispatchCycle +
                                 uint64_t(dprm.robTimer)));
    }
    return wake;
}

// ---------------------------------------------------------------------
// Analyze
// ---------------------------------------------------------------------

bool
DkipCore::sourcesLongLatency(const core::DynInst &inst) const
{
    // The paper's rule: classify by the LLBV bits of the source
    // registers; Analyze is in order, so at this point the LLBV
    // reflects exactly the definitions older than inst.
    int16_t s1 = inst.op.src1;
    int16_t s2 = inst.op.src2;
    return (s1 != isa::NoReg && llbv.test(size_t(s1))) ||
           (s2 != isa::NoReg && llbv.test(size_t(s2)));
}

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
DkipCore::insertIntoLlib(InstRef ref)
{
    core::DynInst &inst = arena.get(ref);
    KILO_ASSERT(!inst.issued,
                "issued instruction classified low-locality");
    bool fp = inst.op.isFp();
    Llib &q = fp ? llibFp : llibInt;
    Llrf &rf = fp ? llrfFp : llrfInt;

    if (q.full()) {
        ++st.llibFullStalls;
        return false;
    }
    bool needs_reg = hasReadyOperand(inst);
    if (needs_reg && !rf.tryAlloc(inst)) {
        ++st.llrfFullStalls;
        return false;
    }
    if (inst.op.isBranch()) {
        if (chkpt.full()) {
            // No free checkpoint: the branch proceeds uncovered (the
            // hardware would have skipped this high-confidence-style
            // checkpoint); a misprediction then replays from an older
            // checkpoint at a higher recovery penalty.
            ++st.checkpointSkips;
        } else {
            chkpt.push(inst.seq, llbv);
            ++st.checkpointsTaken;
            obsEvent(obs::EventKind::CkptCreate, inst.seq,
                     chkpt.size());
        }
    }

    if (core::IssueQueue *iq = queueById(inst.iqId))
        iq->erase(ref);
    if (inst.op.dst != isa::NoReg)
        llbv.set(size_t(inst.op.dst));
    inst.inLlib = true;
    inst.longLatency = true;
    inst.execInMp = true;
    obsEvent(obs::EventKind::Park, inst.seq, 0, fp ? 1 : 0);
    q.push(ref);
    if (fp)
        ++st.llibInsertedFp;
    else
        ++st.llibInsertedInt;
    return true;
}

void
DkipCore::stageAnalyze()
{
    int budget = dprm.analyzeWidth;
    while (budget > 0 && !rob.empty()) {
        InstRef headRef = rob.front();
        core::DynInst &head = arena.get(headRef);

        // The Aging-ROB: entries face Analyze a fixed timer after
        // decode. The timer is sized so an L2 hit/miss indication is
        // back by the time a load reaches the head.
        if (now <
            arena.coldOf(head).dispatchCycle + uint64_t(dprm.robTimer))
            break;

        if (head.completed) {
            // Executed: short latency. Completion redefines the
            // destination as high-locality.
            if (head.op.dst != isa::NoReg)
                llbv.clear(size_t(head.op.dst));
            rob.pop_front();
            releaseAgingRobEntry(head);
            --budget;
            ++activity;
            continue;
        }

        if (head.op.isLoad() && head.issued) {
            if (head.longLatency) {
                // Off-chip miss: mark the destination low-locality;
                // the Address Processor delivers the value to the
                // LLIB's value FIFO when memory returns.
                if (head.op.dst != isa::NoReg)
                    llbv.set(size_t(head.op.dst));
                rob.pop_front();
                releaseAgingRobEntry(head);
                --budget;
                ++activity;
                continue;
            }
            // Cache hit still in flight: wait for writeback.
            ++st.analyzeStallCycles;
            break;
        }

        if (head.issued) {
            // Non-load already executing (its sources were ready even
            // if the LLBV still flags them): short latency by
            // definition; wait for writeback.
            ++st.analyzeStallCycles;
            break;
        }

        bool low = sourcesLongLatency(head);
        if (!low && head.op.isLoad() && !head.issued) {
            // Memory dependence through a low-locality store: the
            // load belongs to the slice even though its registers are
            // high-locality.
            auto check = lsq.checkLoad(head);
            if (check.kind == core::LoadCheck::Kind::Blocked) {
                const core::DynInst &st_ = arena.get(check.store);
                if (st_.execInMp || st_.longLatency)
                    low = true;
            }
        }

        if (low) {
            if (head.op.isMem()) {
                // Memory operations never enter the LLIB: they have
                // held an LSQ entry since dispatch, and the Address
                // Processor issues them over the memory ports the
                // moment their operands arrive ("long-latency loads
                // are executed in the address processor", 3.2). This
                // keeps independent miss chains overlapped even
                // though the LLIB is a FIFO.
                if (apQ.full())
                    break;
                if (core::IssueQueue *iq = queueById(head.iqId))
                    iq->erase(headRef);
                if (head.op.dst != isa::NoReg)
                    llbv.set(size_t(head.op.dst));
                head.longLatency = true;
                head.execInMp = true;
                obsEvent(obs::EventKind::Park, head.seq, 0, 2);
                apQ.insert(headRef);
            } else if (!insertIntoLlib(headRef)) {
                break;
            }
            rob.pop_front();
            releaseAgingRobEntry(head);
            --budget;
            ++activity;
            continue;
        }

        // Short-latency but not yet executed: the paper stalls
        // Analyze until writeback so checkpoints always see READY
        // short-latency values (~0.7% IPC loss reported).
        ++st.analyzeStallCycles;
        break;
    }
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
// Issue, recovery hooks, accounting
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
DkipCore::onCommitInst(InstRef inst)
{
    // Unlike the baseline, ROB entries left at Analyze; commit is
    // bookkeeping only.
    (void)inst;
}

void
DkipCore::onSquashInst(InstRef ref)
{
    core::DynInst &inst = arena.get(ref);
    if (!rob.empty() && rob.back() == ref) {
        rob.pop_back();
        inst.inRob = false;
    }
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
DkipCore::onBranchResolved(InstRef ref)
{
    const core::DynInst &inst = arena.get(ref);
    if (inst.execInMp)
        chkpt.resolve(inst.seq);
}

int
DkipCore::recoveryExtraPenalty(InstRef ref) const
{
    const core::DynInst &branch = arena.get(ref);
    if (!branch.execInMp)
        return 0;
    // MP mispredictions restore a full checkpoint instead of using
    // the CP's rename stack; an uncovered branch replays from an
    // older checkpoint and pays correspondingly more.
    bool covered = chkpt.findFor(branch.seq) != nullptr;
    return covered ? dprm.mpRecoveryExtraPenalty
                   : 3 * dprm.mpRecoveryExtraPenalty;
}

void
DkipCore::onRecovered(InstRef ref)
{
    const core::DynInst &branch = arena.get(ref);
    if (branch.execInMp) {
        const Checkpoint *cp = chkpt.findFor(branch.seq);
        if (cp) {
            llbv = cp->llbv;
        } else {
            // Conservative full clear (paper's literal recovery
            // semantics) when no checkpoint is available.
            llbv.clearAll();
        }
        obsEvent(obs::EventKind::CkptRestore, branch.seq,
                 cp ? 1 : 0);
    }
    chkpt.squashFrom(branch.seq);
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
