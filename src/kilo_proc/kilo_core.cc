#include "src/kilo_proc/kilo_core.hh"

#include <algorithm>

#include "src/util/logging.hh"

namespace kilo::kilo_proc
{

KiloParams
KiloParams::kilo1024()
{
    KiloParams p;
    p.cp.name = "kilo-1024";
    p.cp.robSize = 64;          // pseudo-ROB
    p.cp.intIqSize = 72;
    p.cp.fpIqSize = 72;
    p.cp.commitWidth = 8;       // checkpointed bulk retirement
    return p;
}

KiloCore::KiloCore(const KiloParams &params, wload::Workload &wl,
                   const mem::MemConfig &mem_config)
    : core::OooCore(params.cp, wl, mem_config),
      kprm(params),
      llbv(isa::NumRegs),
      sliq("sliq", params.sliqCapacity,
           core::SchedPolicy::OutOfOrder, arena),
      chkpt(params.checkpointCapacity)
{
    registerIssueQueue(sliq);

    // SLIQ statistics: the KILO baseline stores its slow-lane
    // accounting in the shared llib*/analyze CoreStats fields, but
    // names them for what they measure on this machine (they only
    // appear in the KILO stats schema).
    auto &r = statsReg;
    r.counter("sliq_inserted_int",
              "Low-locality int instructions moved to the SLIQ",
              &st.llibInsertedInt);
    r.counter("sliq_inserted_fp",
              "Low-locality FP instructions moved to the SLIQ",
              &st.llibInsertedFp);
    r.counter("analyze_stall_cycles",
              "Cycles the Analyze stage stalled the pseudo-ROB drain",
              &st.analyzeStallCycles);
    r.counter("sliq_full_stalls",
              "Analyze stalls because the SLIQ was full",
              &st.llibFullStalls);
    r.counter("checkpoint_skips",
              "SLIQ branches with no free checkpoint entry",
              &st.checkpointSkips);
    r.counter("checkpoints_taken", "Checkpoints taken at SLIQ branches",
              &st.checkpointsTaken);
    r.counter("max_sliq_instrs", "Peak SLIQ occupancy",
              &st.maxLlibInstrsInt);
    r.gaugeInt("sliq_occupancy", "Current SLIQ entries",
               [this] { return uint64_t(sliq.size()); });
    r.gaugeInt("checkpoint_depth", "Live checkpoint-stack entries",
               [this] { return uint64_t(chkpt.size()); });
}

void
KiloCore::beginCycleQueues()
{
    core::OooCore::beginCycleQueues();
    sliq.beginCycle();
}

size_t
KiloCore::totalReady() const
{
    return core::OooCore::totalReady() + sliq.numReady();
}

core::StallReason
KiloCore::refineStallReason(const core::DynInst &head,
                            core::StallReason r) const
{
    using R = core::StallReason;
    // A head waiting in the SLIQ belongs to the checkpointed slow
    // lane; charge its slots to the decoupled machinery rather than
    // the front core's dataflow or issue bandwidth.
    if ((r == R::Depend || r == R::Issue) && head.execInMp)
        return R::Decoupled;
    return r;
}

uint64_t
KiloCore::nextTimedWake() const
{
    // Only a head still aging is a deadline: once its timer has
    // passed, Analyze waits on a completion or a ready instruction.
    uint64_t wake = core::OooCore::nextTimedWake();
    if (!rob.empty()) {
        wake = std::min(wake,
                        upcoming(arena.cold(rob.front()).dispatchCycle +
                                 uint64_t(kprm.robTimer)));
    }
    return wake;
}

bool
KiloCore::sourcesLongLatency(const core::DynInst &inst) const
{
    int16_t s1 = inst.op.src1;
    int16_t s2 = inst.op.src2;
    return (s1 != isa::NoReg && llbv.test(size_t(s1))) ||
           (s2 != isa::NoReg && llbv.test(size_t(s2)));
}

bool
KiloCore::moveToSliq(InstRef ref)
{
    core::DynInst &inst = arena.get(ref);
    if (sliq.full()) {
        ++st.llibFullStalls;
        return false;
    }
    if (inst.op.isBranch()) {
        if (chkpt.full()) {
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
    inst.longLatency = true;
    inst.execInMp = true;       // "slow lane" execution
    obsEvent(obs::EventKind::Park, inst.seq, 0,
             inst.op.isFp() ? 1 : 0);
    sliq.insert(ref);
    if (inst.op.isFp())
        ++st.llibInsertedFp;
    else
        ++st.llibInsertedInt;
    return true;
}

void
KiloCore::stageAnalyze()
{
    int budget = kprm.analyzeWidth;
    while (budget > 0 && !rob.empty()) {
        InstRef headRef = rob.front();
        core::DynInst &head = arena.get(headRef);
        if (now <
            arena.coldOf(head).dispatchCycle + uint64_t(kprm.robTimer))
            break;

        if (head.completed) {
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
                if (head.op.dst != isa::NoReg)
                    llbv.set(size_t(head.op.dst));
                rob.pop_front();
                releaseAgingRobEntry(head);
                --budget;
                ++activity;
                continue;
            }
            ++st.analyzeStallCycles;
            break;
        }

        if (head.issued) {
            // Already executing: short latency; wait for writeback.
            ++st.analyzeStallCycles;
            break;
        }

        bool low = sourcesLongLatency(head);
        if (!low && head.op.isLoad() && !head.issued) {
            auto check = lsq.checkLoad(head);
            if (check.kind == core::LoadCheck::Kind::Blocked) {
                const core::DynInst &st_ = arena.get(check.store);
                if (st_.execInMp || st_.longLatency)
                    low = true;
            }
        }

        if (low) {
            if (!moveToSliq(headRef))
                break;
            rob.pop_front();
            releaseAgingRobEntry(head);
            --budget;
            ++activity;
            continue;
        }

        ++st.analyzeStallCycles;
        break;
    }

    st.maxLlibInstrsInt =
        std::max(st.maxLlibInstrsInt, uint64_t(sliq.size()));
}

void
KiloCore::onCommitInst(InstRef inst)
{
    (void)inst; // entries left the pseudo-ROB at Analyze
}

void
KiloCore::onSquashInst(InstRef inst)
{
    if (!rob.empty() && rob.back() == inst) {
        rob.pop_back();
        arena.get(inst).inRob = false;
    }
    // SLIQ residency is handled through DynInst::iqId by the base.
}

void
KiloCore::onBranchResolved(InstRef ref)
{
    const core::DynInst &inst = arena.get(ref);
    if (inst.execInMp)
        chkpt.resolve(inst.seq);
}

int
KiloCore::recoveryExtraPenalty(InstRef ref) const
{
    const core::DynInst &branch = arena.get(ref);
    if (!branch.execInMp)
        return 0;
    bool covered = chkpt.findFor(branch.seq) != nullptr;
    return covered ? kprm.recoveryExtraPenalty
                   : 3 * kprm.recoveryExtraPenalty;
}

void
KiloCore::onRecovered(InstRef ref)
{
    const core::DynInst &branch = arena.get(ref);
    if (branch.execInMp) {
        const dkip::Checkpoint *cp = chkpt.findFor(branch.seq);
        if (cp)
            llbv = cp->llbv;
        else
            llbv.clearAll();
        obsEvent(obs::EventKind::CkptRestore, branch.seq,
                 cp ? 1 : 0);
    }
    chkpt.squashFrom(branch.seq);
}

void
KiloCore::tick()
{
    beginCycle();
    stageCommit();
    stageComplete();
    stageAnalyze();
    issueFromQueue(intIq, fus, prm.issueWidthInt);
    issueFromQueue(fpIq, fus, prm.issueWidthFp);
    issueFromQueue(sliq, fus, kprm.sliqIssueWidth);
    stageDispatch();
    stageFetch();
    endCycle();
}


void
KiloCore::saveDerived(ckpt::Sink &s) const
{
    OooCore::saveDerived(s);
    llbv.save(s);
    sliq.save(s);
    chkpt.save(s);
}

void
KiloCore::restoreDerived(ckpt::Source &s)
{
    OooCore::restoreDerived(s);
    llbv.load(s);
    sliq.load(s);
    chkpt.load(s);
}

} // namespace kilo::kilo_proc
