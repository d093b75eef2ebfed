#include "src/sim/session.hh"

#include "src/trace/trace_reader.hh"
#include "src/wload/synthetic.hh"

namespace kilo::sim
{

namespace
{

constexpr const char TracePrefix[] = "trace:";

} // anonymous namespace

wload::WorkloadPtr
openWorkload(const std::string &workload_name)
{
    if (workload_name.rfind(TracePrefix, 0) == 0)
        return trace::openTrace(
            workload_name.substr(sizeof(TracePrefix) - 1));
    return wload::makeWorkload(workload_name);
}

Session::Session(const MachineConfig &machine,
                 const std::string &workload_name,
                 const mem::MemConfig &mem_config,
                 const RunConfig &run_config)
    : Session(machine, openWorkload(workload_name), nullptr, mem_config,
              run_config)
{
}

Session::Session(const MachineConfig &machine, wload::Workload &workload,
                 const mem::MemConfig &mem_config,
                 const RunConfig &run_config)
    : Session(machine, nullptr, &workload, mem_config, run_config)
{
}

Session::Session(const MachineConfig &machine, wload::WorkloadPtr own,
                 wload::Workload *borrowed,
                 const mem::MemConfig &mem_config,
                 const RunConfig &run_config)
    : machineName(machine.name), rc(run_config), owned(std::move(own)),
      wl(borrowed ? borrowed : owned.get()),
      core_(Simulator::makeCore(machine, *wl, mem_config))
{
    // Functional cache warm-up: install the workload's working set so
    // the short timed region sees the steady-state hit rates a 200M-
    // instruction SimPoint run would.
    for (const auto &region : wl->regions())
        core_->memory().prewarm(region.base, region.bytes);
}

void
Session::requireRestored() const
{
    if (restoreIncomplete)
        throw ckpt::CheckpointError(
            "session state is half-restored after a failed restore(); "
            "restore a valid checkpoint before using it");
}

void
Session::warmup()
{
    requireRestored();
    if (warmedUp)
        return;
    obs::Profiler::Scope prof(profiler, "warmup");
    warmedUp = true;
    if (rc.warmupInsts) {
        core_->run(rc.warmupInsts);
        core_->resetStats();
    }
    measureStartCycle = core_->cycle();
    nextIntervalAt = rc.intervalInsts;
    nextAuditAt = rc.auditIntervalInsts;
}

uint64_t
Session::deadlineCycle() const
{
    return rc.maxCycles ? measureStartCycle + rc.maxCycles
                        : UINT64_MAX;
}

uint64_t
Session::measuredCycles() const
{
    return core_->stats().cycles;
}

uint64_t
Session::measuredCommitted() const
{
    return core_->stats().committed;
}

bool
Session::finished() const
{
    return aborted_ ||
           (warmedUp && core_->stats().committed >= rc.measureInsts);
}

void
Session::advance(uint64_t target_committed, uint64_t cycle_cap)
{
    warmup();
    obs::Profiler::Scope prof(profiler, "measure");
    if (target_committed > rc.measureInsts)
        target_committed = rc.measureInsts;
    const uint64_t deadline = deadlineCycle();
    if (cycle_cap > deadline)
        cycle_cap = deadline;

    while (!aborted_ &&
           core_->stats().committed < target_committed &&
           core_->cycle() < cycle_cap) {
        // Pause at the next interval boundary, if one comes first.
        // runUntil's tick sequence is unaffected by where it pauses,
        // so sampling never perturbs timing.
        uint64_t stop = target_committed;
        if (nextIntervalAt && nextIntervalAt < stop)
            stop = nextIntervalAt;
        if (nextAuditAt && nextAuditAt < stop)
            stop = nextAuditAt;
        core_->runUntil(stop, cycle_cap);
        if (nextIntervalAt &&
            core_->stats().committed >= nextIntervalAt) {
            recordInterval();
            nextIntervalAt += rc.intervalInsts;
        }
        // A wide commit stage can overshoot several audit boundaries
        // in one runUntil() quantum; record one fold per boundary so
        // two runs with different pause slicing stay record-aligned.
        while (nextAuditAt &&
               core_->stats().committed >= nextAuditAt) {
            recordAudit();
            nextAuditAt += rc.auditIntervalInsts;
        }
    }

    if (core_->cycle() >= deadline &&
        core_->stats().committed < rc.measureInsts)
        aborted_ = true;
}

uint64_t
Session::step(uint64_t max_cycles)
{
    warmup();
    uint64_t before = core_->stats().committed;
    uint64_t cap = core_->cycle() + max_cycles;
    if (cap < core_->cycle()) // overflow: treat as unbounded
        cap = UINT64_MAX;
    advance(rc.measureInsts, cap);
    return core_->stats().committed - before;
}

uint64_t
Session::runFor(uint64_t insts)
{
    warmup();
    uint64_t before = core_->stats().committed;
    advance(before + insts, UINT64_MAX);
    return core_->stats().committed - before;
}

void
Session::run()
{
    advance(UINT64_MAX, UINT64_MAX);
}

stats::Snapshot
Session::snapshot() const
{
    requireRestored();
    return core_->statsRegistry().snapshot();
}

void
Session::recordInterval()
{
    stats::IntervalSample s;
    s.index = intervals_.size();
    s.cycles = core_->stats().cycles;
    s.committed = core_->stats().committed;
    const stats::IntervalSample *prev =
        intervals_.empty() ? nullptr : &intervals_.back();
    s.deltaCycles = s.cycles - (prev ? prev->cycles : 0);
    s.deltaCommitted = s.committed - (prev ? prev->committed : 0);
    s.snapshot = core_->statsRegistry().snapshot();
    intervals_.push_back(std::move(s));
}

void
Session::serializePayload(ckpt::Sink &s) const
{
    s.str(machineName);
    s.str(wl->name());
    s.scalar(uint8_t(warmedUp ? 1 : 0));
    s.scalar(uint8_t(aborted_ ? 1 : 0));
    s.scalar(uint64_t(measureStartCycle));
    s.scalar(uint64_t(nextIntervalAt));
    s.scalar(uint64_t(nextAuditAt));
    s.scalar(uint64_t(auditRolling_));
    core_->saveState(s);
}

ckpt::Checkpoint
Session::checkpoint() const
{
    requireRestored();
    ckpt::Sink s;
    serializePayload(s);
    ckpt::Checkpoint c;
    c.bytes = s.take();
    return c;
}

uint64_t
Session::stateDigest() const
{
    requireRestored();
    // The same payload traversal as checkpoint(), folded instead of
    // stored, then every registered statistic: the audit plane hashes
    // exactly what a checkpoint would capture plus what a JSONL row
    // would report. Allocation-free end to end.
    ckpt::Sink s(ckpt::SinkMode::Digest);
    serializePayload(s);
    return core_->statsRegistry().foldValues(s.digest());
}

void
Session::recordAudit()
{
    obs::AuditRecord r;
    r.insts = core_->stats().committed;
    r.cycle = core_->cycle();
    r.state = stateDigest();
    auditRolling_ =
        obs::auditMix(auditRolling_, r.insts, r.cycle, r.state);
    r.rolling = auditRolling_;
    audit_.push_back(r);
}

void
Session::restore(const ckpt::Checkpoint &c)
{
    ckpt::Source s(c.bytes);
    std::string machine = s.str();
    if (machine != machineName)
        throw ckpt::CheckpointError(
            "checkpoint was taken on machine '" + machine +
            "', this session runs '" + machineName + "'");
    std::string workload = s.str();
    if (workload != wl->name())
        throw ckpt::CheckpointError(
            "checkpoint was taken on workload '" + workload +
            "', this session runs '" + wl->name() + "'");
    // Set until the whole image has been applied: a component that
    // throws from here on leaves the state part restored, part fresh.
    // The identity checks above overwrite nothing, so a rejection
    // there leaves the Session as it was.
    restoreIncomplete = true;
    warmedUp = s.scalar<uint8_t>() != 0;
    aborted_ = s.scalar<uint8_t>() != 0;
    measureStartCycle = s.scalar<uint64_t>();
    nextIntervalAt = s.scalar<uint64_t>();
    nextAuditAt = s.scalar<uint64_t>();
    auditRolling_ = s.scalar<uint64_t>();
    core_->restoreState(s);
    if (!s.atEnd())
        throw ckpt::CheckpointError(
            "checkpoint has trailing bytes after the core state");
    restoreIncomplete = false;
    intervals_.clear();
    // Like interval samples, already-recorded audit records are not
    // part of the image — but the rolling digest and the cursor are,
    // so a restored run's chain continues exactly where the
    // checkpointed run's would have.
    audit_.clear();
}

void
Session::saveCheckpoint(const std::string &path) const
{
    ckpt::writeCheckpointFile(path, checkpoint().bytes);
}

void
Session::loadCheckpoint(const std::string &path)
{
    ckpt::Checkpoint c;
    c.bytes = ckpt::readCheckpointFile(path);
    restore(c);
}

RunResult
Session::finish()
{
    requireRestored();
    obs::Profiler::Scope prof(profiler, "finish");
    RunResult res;
    res.machine = machineName;
    res.workload = wl->name();
    res.stats = core_->stats();
    res.ipc = core_->stats().ipc();
    res.aborted = aborted_;
    res.snapshot = core_->statsRegistry().snapshot();
    res.intervals = std::move(intervals_);
    intervals_.clear();
    res.audit = std::move(audit_);
    audit_.clear();
    res.auditRolling = auditRolling_;
    return res;
}

} // namespace kilo::sim
