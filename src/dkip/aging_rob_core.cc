#include "src/dkip/aging_rob_core.hh"

#include <algorithm>

namespace kilo::dkip
{

AgingRobCore::AgingRobCore(const core::CoreParams &cp,
                           wload::Workload &wl,
                           const mem::MemConfig &mem_config,
                           int rob_timer, int analyze_width,
                           size_t checkpoint_capacity,
                           int recovery_penalty)
    : core::OooCore(cp, wl, mem_config),
      llbv(isa::NumRegs),
      chkpt(checkpoint_capacity),
      robTimer(rob_timer),
      analyzeWidth(analyze_width),
      recoveryPenalty(recovery_penalty)
{}

core::StallReason
AgingRobCore::refineStallReason(const core::DynInst &head,
                                core::StallReason r) const
{
    using R = core::StallReason;
    // A head sitting unissued in a slow-lane structure (LLIB FIFO,
    // MP reservation queue, AP window, SLIQ) is stalled on the
    // decoupled machinery itself — checkpointed slow-lane execution —
    // not on the front core's dataflow or issue bandwidth.
    if ((r == R::Depend || r == R::Issue) &&
        (head.inLlib || head.execInMp))
        return R::Decoupled;
    return r;
}

uint64_t
AgingRobCore::nextTimedWake() const
{
    // Only a head still aging is a deadline: once its timer has
    // passed, Analyze waits on a completion or a ready instruction.
    uint64_t wake = core::OooCore::nextTimedWake();
    if (!rob.empty()) {
        wake = std::min(wake,
                        upcoming(arena.cold(rob.front()).dispatchCycle +
                                 uint64_t(robTimer)));
    }
    return wake;
}

// ---------------------------------------------------------------------
// Analyze
// ---------------------------------------------------------------------

bool
AgingRobCore::sourcesLongLatency(const core::DynInst &inst) const
{
    // The paper's rule: classify by the LLBV bits of the source
    // registers; Analyze is in order, so at this point the LLBV
    // reflects exactly the definitions older than inst.
    int16_t s1 = inst.op.src1;
    int16_t s2 = inst.op.src2;
    return (s1 != isa::NoReg && llbv.test(size_t(s1))) ||
           (s2 != isa::NoReg && llbv.test(size_t(s2)));
}

void
AgingRobCore::parkInSlowLane(InstRef ref, uint8_t lane)
{
    core::DynInst &inst = arena.get(ref);
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
    inst.longLatency = true;
    inst.execInMp = true;
    obsEvent(obs::EventKind::Park, inst.seq, 0, lane);
}

void
AgingRobCore::stageAnalyze()
{
    int budget = analyzeWidth;
    while (budget > 0 && !rob.empty()) {
        InstRef headRef = rob.front();
        core::DynInst &head = arena.get(headRef);

        // The Aging-ROB: entries face Analyze a fixed timer after
        // decode. The timer is sized so an L2 hit/miss indication is
        // back by the time a load reaches the head.
        if (now <
            arena.coldOf(head).dispatchCycle + uint64_t(robTimer))
            break;

        if (head.completed) {
            // Executed: short latency. Completion redefines the
            // destination as high-locality.
            if (head.op.dst != isa::NoReg)
                llbv.clear(size_t(head.op.dst));
        } else if (head.op.isLoad() && head.issued) {
            if (!head.longLatency) {
                // Cache hit still in flight: wait for writeback.
                ++st.analyzeStallCycles;
                break;
            }
            // Off-chip miss: mark the destination low-locality; the
            // memory system delivers the value to the slow lane when
            // it returns.
            if (head.op.dst != isa::NoReg)
                llbv.set(size_t(head.op.dst));
        } else if (head.issued) {
            // Non-load already executing (its sources were ready even
            // if the LLBV still flags them): short latency by
            // definition; wait for writeback.
            ++st.analyzeStallCycles;
            break;
        } else {
            bool low = sourcesLongLatency(head);
            if (!low && head.op.isLoad()) {
                // Memory dependence through a slow-lane store: the
                // load belongs to the slice even though its registers
                // are high-locality.
                auto check = lsq.checkLoad(head);
                if (check.kind == core::LoadCheck::Kind::Blocked) {
                    const core::DynInst &st_ = arena.get(check.store);
                    if (st_.execInMp || st_.longLatency)
                        low = true;
                }
            }
            if (!low) {
                // Short-latency but not yet executed: the paper
                // stalls Analyze until writeback so checkpoints
                // always see READY short-latency values (~0.7% IPC
                // loss reported).
                ++st.analyzeStallCycles;
                break;
            }
            if (!insertSlowLane(headRef))
                break;
        }
        rob.pop_front();
        releaseAgingRobEntry(head);
        --budget;
        ++activity;
    }
}

// ---------------------------------------------------------------------
// Commit, squash and checkpoint recovery
// ---------------------------------------------------------------------

void
AgingRobCore::onCommitInst(InstRef inst)
{
    // Unlike the baseline, ROB entries left at Analyze; commit is
    // bookkeeping only.
    (void)inst;
}

void
AgingRobCore::onSquashInst(InstRef ref)
{
    if (!rob.empty() && rob.back() == ref) {
        rob.pop_back();
        arena.get(ref).inRob = false;
    }
}

void
AgingRobCore::onBranchResolved(InstRef ref)
{
    const core::DynInst &inst = arena.get(ref);
    if (inst.execInMp)
        chkpt.resolve(inst.seq);
}

int
AgingRobCore::recoveryExtraPenalty(InstRef ref) const
{
    const core::DynInst &branch = arena.get(ref);
    if (!branch.execInMp)
        return 0;
    // Slow-lane mispredictions restore a full checkpoint instead of
    // using the front core's rename stack; an uncovered branch
    // replays from an older checkpoint and pays correspondingly more.
    bool covered = chkpt.findFor(branch.seq) != nullptr;
    return covered ? recoveryPenalty : 3 * recoveryPenalty;
}

void
AgingRobCore::onRecovered(InstRef ref)
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

} // namespace kilo::dkip
