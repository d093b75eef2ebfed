#include "src/kilo_proc/kilo_core.hh"

#include <algorithm>

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
    : dkip::AgingRobCore(params.cp, wl, mem_config, params.robTimer,
                         params.analyzeWidth, params.checkpointCapacity,
                         params.recoveryExtraPenalty),
      kprm(params),
      sliq("sliq", params.sliqCapacity,
           core::SchedPolicy::OutOfOrder, arena)
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

bool
KiloCore::insertSlowLane(InstRef ref)
{
    if (sliq.full()) {
        ++st.llibFullStalls;
        return false;
    }
    bool fp = arena.get(ref).op.isFp();
    parkInSlowLane(ref, fp ? 1 : 0);
    sliq.insert(ref);
    if (fp)
        ++st.llibInsertedFp;
    else
        ++st.llibInsertedInt;
    return true;
}

void
KiloCore::tick()
{
    beginCycle();
    stageCommit();
    stageComplete();
    stageAnalyze();
    st.maxLlibInstrsInt =
        std::max(st.maxLlibInstrsInt, uint64_t(sliq.size()));
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
