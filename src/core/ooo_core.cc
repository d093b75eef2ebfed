#include "src/core/ooo_core.hh"

#include "src/util/logging.hh"

namespace kilo::core
{

OooCore::OooCore(const CoreParams &params, wload::Workload &wl,
                 const mem::MemConfig &mem_config)
    : PipelineBase(params, wl, mem_config),
      rob(params.robSize),
      intIq("intIQ", params.intIqSize, params.intPolicy, arena),
      fpIq("fpIQ", params.fpIqSize, params.fpPolicy, arena),
      fus(params.fus)
{
    registerIssueQueue(intIq);
    registerIssueQueue(fpIq);
}

IssueQueue &
OooCore::queueFor(const DynInst &inst)
{
    return isa::isFpClass(inst.op.cls) ? fpIq : intIq;
}

void
OooCore::stageIssue()
{
    issueFromQueue(intIq, fus, prm.issueWidthInt);
    issueFromQueue(fpIq, fus, prm.issueWidthFp);
}

void
OooCore::stageDispatch()
{
    int budget = prm.dispatchWidth;
    while (budget > 0 && !fetchBuffer.empty()) {
        InstRef ref = fetchBuffer.front();
        DynInst &inst = arena.get(ref);
        if (now < inst.fetchCycle + uint64_t(prm.frontEndDepth))
            break;
        if (rob.size() >= prm.robSize) {
            ++st.dispatchBlockedRob;
            break;
        }
        if (inst.op.isMem() && lsq.full()) {
            ++st.dispatchBlockedLsq;
            break;
        }
        IssueQueue &iq = queueFor(inst);
        bool needs_iq = inst.op.cls != isa::OpClass::Nop;
        if (needs_iq && iq.full()) {
            ++st.dispatchBlockedIq;
            break;
        }

        fetchBuffer.pop_front();
        dispatchCommon(ref);
        rob.push_back(ref);
        inst.inRob = true;
        if (needs_iq) {
            iq.insert(ref);
        } else {
            // Nops complete without occupying any queue.
            inst.issued = true;
            arena.coldOf(inst).issueCycle = now;
            scheduleCompletion(ref, 1);
        }
        --budget;
    }
}

void
OooCore::onCommitInst(InstRef inst)
{
    KILO_ASSERT(!rob.empty() && rob.front() == inst,
                "ROB head does not match committing instruction");
    rob.pop_front();
    arena.get(inst).inRob = false;
}

void
OooCore::onSquashInst(InstRef inst)
{
    KILO_ASSERT(!rob.empty() && rob.back() == inst,
                "ROB tail does not match squashed instruction");
    rob.pop_back();
    arena.get(inst).inRob = false;
}

void
OooCore::tick()
{
    beginCycle();
    stageCommit();
    stageComplete();
    stageIssue();
    stageDispatch();
    stageFetch();
    endCycle();
}

void
OooCore::saveDerived(ckpt::Sink &s) const
{
    rob.save(s);
    intIq.save(s);
    fpIq.save(s);
    fus.save(s);
}

void
OooCore::restoreDerived(ckpt::Source &s)
{
    rob.load(s);
    ckpt::expectAtMost(rob.size(), prm.robSize, "ROB occupancy");
    intIq.load(s);
    fpIq.load(s);
    fus.load(s);
}

} // namespace kilo::core
