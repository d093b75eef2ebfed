#include "src/core/pipeline_base.hh"

#include <algorithm>
#include <iterator>

#include "src/util/logging.hh"

namespace kilo::core
{

PipelineBase::PipelineBase(const CoreParams &params,
                           wload::Workload &wl,
                           const mem::MemConfig &mem_config)
    : prm(params), workload(wl), trace(wl),
      bp(pred::makePredictor(params.predictor)),
      fetchEngine(trace, *bp, prm, arena), mem_(mem_config),
      lsq(params.lsqSize, arena)
{
    registerBaseStats();
}

void
PipelineBase::registerBaseStats()
{
    using stats::Row;
    auto &r = statsReg;

    // The Row::Yes registrations below, in this order, define the
    // stable JSONL row schema (see src/stats/DESIGN.md): derived
    // throughput metrics first, then the memory hierarchy's block.
    r.gauge("ipc", "Committed instructions per cycle (measured region)",
            [this] { return st.ipc(); }, Row::Yes);
    r.counter("cycles", "Simulated cycles in the measured region",
              &st.cycles, Row::Yes);
    r.counter("committed", "Instructions committed", &st.committed,
              Row::Yes);
    r.counter("branches", "Branches committed", &st.branches, Row::Yes);
    r.gauge("mispredict_rate", "Branch mispredictions per branch",
            [this] { return st.mispredictRate(); }, Row::Yes);
    r.gauge("mp_fraction",
            "Fraction of committed instructions executed in the MP",
            [this] { return st.mpFraction(); }, Row::Yes);
    mem_.registerStats(r);

    // Commit-slot stall attribution (Plane 2, src/obs/DESIGN.md):
    // every commit slot a cycle leaves unused is charged to the head's
    // stall reason, so over an exactly-simulated region
    // sum(stall_*) + committed == commitWidth * cycles. Appended after
    // the memory block so the pre-existing row prefix is unchanged.
    r.counter("stall_frontend",
              "Commit slots idle with an empty window while fetch "
              "waited out a redirect",
              &st.stallSlots[size_t(StallReason::Frontend)], Row::Yes);
    r.counter("stall_empty",
              "Commit slots idle with an empty window while the "
              "front end refilled",
              &st.stallSlots[size_t(StallReason::Empty)], Row::Yes);
    r.counter("stall_mem",
              "Commit slots lost to the head waiting on memory data",
              &st.stallSlots[size_t(StallReason::Mem)], Row::Yes);
    r.counter("stall_exec",
              "Commit slots lost to the head still executing a "
              "non-memory op",
              &st.stallSlots[size_t(StallReason::Exec)], Row::Yes);
    r.counter("stall_depend",
              "Commit slots lost to the head waiting on source "
              "operands",
              &st.stallSlots[size_t(StallReason::Depend)], Row::Yes);
    r.counter("stall_issue",
              "Commit slots lost to a ready head starved of issue "
              "bandwidth or a functional unit",
              &st.stallSlots[size_t(StallReason::Issue)], Row::Yes);
    r.counter("stall_mshr",
              "Commit slots lost to a ready head memory op held by "
              "MSHR back-pressure",
              &st.stallSlots[size_t(StallReason::Mshr)], Row::Yes);
    r.counter("stall_decoupled",
              "Commit slots lost to the head parked in a slow-lane "
              "structure (LLIB/SLIQ/MP)",
              &st.stallSlots[size_t(StallReason::Decoupled)],
              Row::Yes);

    r.counter("dispatch_blocked_rob",
              "Dispatch cycles cut short by a full ROB",
              &st.dispatchBlockedRob);
    r.counter("dispatch_blocked_iq",
              "Dispatch cycles cut short by a full issue queue",
              &st.dispatchBlockedIq);
    r.counter("dispatch_blocked_lsq",
              "Dispatch cycles cut short by a full LSQ",
              &st.dispatchBlockedLsq);

    r.counter("fetched", "Instructions fetched", &st.fetched);
    r.counter("dispatched", "Instructions dispatched", &st.dispatched);
    r.counter("issued", "Instructions issued", &st.issued);
    r.counter("squashed", "Instructions squashed on recovery",
              &st.squashed);
    r.counter("mispredicts", "Branches mispredicted", &st.mispredicts);
    r.counter("loads", "Loads committed", &st.loads);
    r.counter("stores", "Stores committed", &st.stores);
    r.counter("load_l1", "Committed loads serviced by the L1",
              &st.loadL1);
    r.counter("load_l2", "Committed loads serviced by the L2",
              &st.loadL2);
    r.counter("load_mem", "Committed loads serviced off chip",
              &st.loadMem);
    r.counter("store_forwards", "Loads forwarded from an older store",
              &st.storeForwards);
    r.counter("mp_executed", "Committed instructions executed in MP",
              &st.mpExecuted);
    r.counter("cp_executed", "Committed instructions executed in CP",
              &st.cpExecuted);
    r.histogram("issue_latency",
                "Decode->issue distance of committed instructions "
                "(cycles, Figure 3)",
                &st.issueLatency);
}

void
PipelineBase::beginCycle()
{
    activity = 0;
    portsUsed = 0;
    for (size_t i = 0; i < std::size(PerCycleStalls); ++i)
        perCycleSnap[i] = st.*PerCycleStalls[i];
    for (int i = 0; i < numIqs; ++i)
        iqTable[i]->beginCycle();
}

void
PipelineBase::endCycle()
{
    lsq.retireCompleted();
    ++st.cycles;
    ++now;
}

// ---------------------------------------------------------------------
// Commit
// ---------------------------------------------------------------------

void
PipelineBase::stageCommit()
{
    int budget = prm.commitWidth;
    while (budget > 0 && !globalOrder.empty()) {
        InstRef ref = globalOrder.front();
        DynInst &inst = arena.get(ref);
        if (!inst.completed)
            break;
        globalOrder.pop_front();
        --budget;
        ++activity;

        ++st.committed;
        lastCommitCycle = now;
        if (inst.op.isBranch()) {
            ++st.branches;
            if (inst.mispredicted)
                ++st.mispredicts;
        } else if (inst.op.isLoad()) {
            ++st.loads;
            switch (inst.serviceLevel) {
              case mem::ServiceLevel::L1: ++st.loadL1; break;
              case mem::ServiceLevel::L2: ++st.loadL2; break;
              case mem::ServiceLevel::Memory: ++st.loadMem; break;
            }
        } else if (inst.op.isStore()) {
            ++st.stores;
        }
        if (inst.execInMp)
            ++st.mpExecuted;
        else
            ++st.cpExecuted;
        st.issueLatency.sample(arena.coldOf(inst).issueLatency());
        obsEvent(obs::EventKind::Commit, inst.seq, 0,
                 uint8_t(inst.execInMp));

        onCommitInst(ref);

        // Recycle the slot unless a structure still holds the entry:
        // an LSQ resident defers to Lsq::retireCompleted, an
        // aging-ROB resident (D-KIP/KILO commit does not drain the
        // pseudo-ROB) defers to the Analyze-stage pop. The last
        // releaser recycles.
        inst.retired = true;
        if (!inst.inLsq && !inst.inRob)
            arena.free(ref);
    }
    // Commit-slot accounting: the loop above exits early only when
    // the head is incomplete or the window is empty; every slot it
    // left unused is charged to that single cause (commit is
    // in-order, so nothing younger could have used them either).
    if (budget > 0)
        st.stallSlots[size_t(classifyStall())] += uint64_t(budget);
    // Ops may only be reclaimed once nothing can replay them: they
    // must be older than every in-flight instruction, everything in
    // the fetch buffer, and the (possibly rewound) fetch point.
    uint64_t keep = fetchEngine.nextSeq();
    if (!fetchBuffer.empty())
        keep = std::min(keep, arena.get(fetchBuffer.front()).seq);
    if (!globalOrder.empty())
        keep = std::min(keep, arena.get(globalOrder.front()).seq);
    trace.release(keep);
}

StallReason
PipelineBase::classifyStall()
{
    if (globalOrder.empty()) {
        return fetchEngine.blocked(now) ? StallReason::Frontend
                                        : StallReason::Empty;
    }
    const DynInst &head = arena.get(globalOrder.front());
    StallReason r;
    if (head.issued) {
        r = head.op.isMem() ? StallReason::Mem : StallReason::Exec;
    } else if (!head.readyFlag) {
        r = StallReason::Depend;
    } else if (head.op.isMem() &&
               mem_.wouldBlockProbe(head.op.effAddr, now)) {
        r = StallReason::Mshr;
    } else {
        r = StallReason::Issue;
    }
    return refineStallReason(head, r);
}

// ---------------------------------------------------------------------
// Completion and recovery
// ---------------------------------------------------------------------

void
PipelineBase::scheduleCompletion(InstRef inst, uint32_t latency)
{
    wheel.schedule(now + (latency ? latency : 1), inst);
}

void
PipelineBase::wakeDependents(DynInst &inst)
{
    // Walk the pooled chain, returning each node as it is consumed;
    // the producer's next tenant starts with an empty chain.
    uint32_t node = inst.depHead;
    inst.depHead = DynInst::NoDep;
    while (node != DynInst::NoDep) {
        InstRef depRef = arena.depNode(node).dep;
        uint32_t next = arena.depNode(node).next;
        arena.depFree(node);
        node = next;

        // A stale handle is a dependent that was squashed and
        // recycled after the edge was recorded.
        DynInst *dep = arena.tryGet(depRef);
        if (!dep || dep->squashed)
            continue;
        KILO_ASSERT(dep->srcNotReady > 0,
                    "wakeup underflow on seq %lu",
                    (unsigned long)dep->seq);
        if (--dep->srcNotReady == 0) {
            dep->readyFlag = true;
            dep->readyCycle = now;
            if (IssueQueue *iq = queueById(dep->iqId))
                iq->markReady(depRef);
        }
    }
}

void
PipelineBase::completeInst(InstRef ref)
{
    DynInst &inst = arena.get(ref);
    DynInstCold &cold = arena.coldOf(inst);
    KILO_ASSERT(!inst.completed, "double completion of seq %lu",
                (unsigned long)inst.seq);
    inst.completed = true;
    cold.completeCycle = now;
    scoreboard.complete(inst, cold);
    wakeDependents(inst);
    cold.dropProducers();
    ++activity;
    obsEvent(obs::EventKind::Complete, inst.seq, 0,
             uint8_t(inst.mispredicted));

    if (inst.op.isBranch()) {
        if (!bp->isPerfect())
            bp->train(cold.pc, cold.historySnapshot, inst.taken());
        if (inst.mispredicted)
            resolvedMispredicts.push_back(ref);
        else
            onBranchResolved(ref);
    }
}

void
PipelineBase::stageComplete()
{
    dueBuf.clear();
    resolvedMispredicts.clear();
    wheel.popDue(now, dueBuf);
    for (InstRef ref : dueBuf) {
        // Squash recycles slots, so events for squashed instructions
        // surface here as stale handles.
        DynInst *inst = arena.tryGet(ref);
        if (!inst || inst->squashed)
            continue;
        completeInst(ref);
    }

    if (!resolvedMispredicts.empty()) {
        // Recover from the oldest mispredicted branch; younger ones
        // sit in its shadow and are squashed by the recovery.
        auto oldest = *std::min_element(
            resolvedMispredicts.begin(), resolvedMispredicts.end(),
            [this](InstRef a, InstRef b) {
                return arena.get(a).seq < arena.get(b).seq;
            });
        recoverFromBranch(oldest);
        resolvedMispredicts.clear();
    }
}

void
PipelineBase::squashYoungerThan(uint64_t seq)
{
    while (!globalOrder.empty() &&
           arena.get(globalOrder.back()).seq > seq) {
        InstRef ref = globalOrder.back();
        DynInst &inst = arena.get(ref);
        DynInstCold &cold = arena.coldOf(inst);
        globalOrder.pop_back();
        inst.squashed = true;
        ++st.squashed;
        obsEvent(obs::EventKind::Squash, inst.seq);
        if (IssueQueue *iq = queueById(inst.iqId))
            iq->notifySquashed(ref);
        if (inst.inLsq)
            lsq.notifySquashed(ref);
        // A stale saved producer means it already committed; restore
        // null rather than parking a dead handle in the scoreboard
        // indefinitely (a register may go unredefined for arbitrarily
        // long, outliving any generation-wrap guarantee).
        if (cold.prevProducer && !arena.isLive(cold.prevProducer))
            cold.prevProducer = InstRef();
        scoreboard.restore(inst, cold);
        onSquashInst(ref);
        // Recycle immediately: every reference that survives (wheel
        // events, ready-heap entries, dependence edges) goes stale
        // and is filtered at its consumer; the dependent chain
        // returns to the pool inside free().
        arena.free(ref);
    }
}

void
PipelineBase::recoverFromBranch(InstRef branchRef)
{
    DynInst &branch = arena.get(branchRef);
    squashYoungerThan(branch.seq);

    // Everything in the fetch buffer is younger than the branch and
    // owns no pipeline state yet; recycle the records directly.
    for (size_t i = 0; i < fetchBuffer.size(); ++i) {
        obsEvent(obs::EventKind::Squash,
                 arena.get(fetchBuffer[i]).seq);
        arena.free(fetchBuffer[i]);
    }
    fetchBuffer.clear();

    uint64_t history = (arena.coldOf(branch).historySnapshot << 1) |
                       (branch.taken() ? 1 : 0);
    uint64_t penalty = uint64_t(prm.mispredictPenalty) +
        uint64_t(recoveryExtraPenalty(branchRef));
    fetchEngine.redirect(branch.seq + 1, now + penalty, history);

    onRecovered(branchRef);
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

void
PipelineBase::issueCommon(InstRef ref, IssueQueue &iq,
                          uint32_t latency)
{
    DynInst &inst = arena.get(ref);
    inst.issued = true;
    arena.coldOf(inst).issueCycle = now;
    iq.removeIssued(ref);
    scheduleCompletion(ref, latency);
    ++st.issued;
    ++activity;
    obsEvent(obs::EventKind::Issue, inst.seq, latency,
             uint8_t(inst.serviceLevel));
}

bool
PipelineBase::tryIssueInst(InstRef ref, IssueQueue &iq, FuPool &fus)
{
    DynInst &inst = arena.get(ref);
    const isa::MicroOpHot &op = inst.op;

    if (op.isMem()) {
        if (!memPortAvailable()) {
            iq.requeue(ref);
            return false;
        }
        if (op.isLoad()) {
            LoadCheck check = lsq.checkLoad(inst);
            if (check.kind == LoadCheck::Kind::Blocked) {
                // Wait for the conflicting older store to execute.
                inst.readyFlag = false;
                iq.droppedNotReady(ref);
                addDependence(ref, check.store);
                return false;
            }
            uint32_t latency;
            if (check.kind == LoadCheck::Kind::Forward) {
                latency = 1;
                inst.serviceLevel = mem::ServiceLevel::L1;
                lsq.countForward();
                ++st.storeForwards;
            } else {
                if (mem_.wouldBlock(op.effAddr, now)) {
                    // Finite-MSHR structural hazard: hold the load in
                    // its slot until a fill lands and frees a way.
                    iq.requeue(ref);
                    return false;
                }
                auto res = mem_.access(op.effAddr, false, now);
                latency = res.latency;
                inst.serviceLevel = res.level;
                inst.longLatency = res.offChip();
            }
            ++portsUsed;
            issueCommon(ref, iq, latency);
        } else {
            if (mem_.wouldBlock(op.effAddr, now)) {
                // A missing store also needs an MSHR way (write
                // allocate); back-pressure it the same way.
                iq.requeue(ref);
                return false;
            }
            // Stores drain through the write buffer: the line is
            // installed now, dependents (via forwarding) see the data
            // next cycle, and commit is never blocked on the miss.
            mem_.access(op.effAddr, true, now);
            ++portsUsed;
            issueCommon(ref, iq, 1);
        }
        return true;
    }

    if (op.cls == isa::OpClass::Nop) {
        issueCommon(ref, iq, 1);
        return true;
    }

    uint32_t latency = uint32_t(isa::opLatency(op.cls));
    if (!fus.tryAcquire(op.cls, now, latency)) {
        iq.requeue(ref);
        return false;
    }
    issueCommon(ref, iq, latency);
    return true;
}

int
PipelineBase::issueFromQueue(IssueQueue &iq, FuPool &fus, int width)
{
    int issued = 0;
    while (issued < width) {
        InstRef ref = iq.popReady(now);
        if (!ref)
            break;
        if (tryIssueInst(ref, iq, fus))
            ++issued;
    }
    return issued;
}

void
PipelineBase::addDependence(InstRef inst, InstRef producer)
{
    DynInst &prod = arena.get(producer);
    KILO_ASSERT(!prod.completed, "dependence on completed producer");
    arena.addDependent(prod, inst);
    ++arena.get(inst).srcNotReady;
}

// ---------------------------------------------------------------------
// Dispatch and fetch
// ---------------------------------------------------------------------

void
PipelineBase::dispatchCommon(InstRef ref)
{
    DynInst &inst = arena.get(ref);
    DynInstCold &cold = arena.coldOf(inst);
    inst.dispatched = true;
    cold.dispatchCycle = now;

    auto wire = [&](int16_t reg, int slot) {
        if (reg == isa::NoReg)
            return;
        const RegState &rs = scoreboard.get(reg);
        // A stale producer handle means the producer already
        // committed: the value is architecturally available.
        DynInst *prod = arena.tryGet(rs.producer);
        if (prod && !prod->completed) {
            arena.addDependent(*prod, ref);
            cold.producers[slot] = rs.producer;
            ++inst.srcNotReady;
        }
    };
    wire(inst.op.src1, 0);
    wire(inst.op.src2, 1);

    if (inst.srcNotReady == 0) {
        inst.readyFlag = true;
        inst.readyCycle = now;
    }

    scoreboard.define(inst, cold);
    globalOrder.push_back(ref);
    if (inst.op.isMem())
        lsq.insert(ref);
    ++st.dispatched;
    ++activity;
    obsEvent(obs::EventKind::Rename, inst.seq);
}

void
PipelineBase::stageFetch()
{
    if (fetchHold)
        return;
    if (fetchBuffer.size() >= prm.fetchBufferSize)
        return;
    if (fetchEngine.blocked(now))
        return;
    int space = int(prm.fetchBufferSize - fetchBuffer.size());
    int count = std::min(prm.fetchWidth, space);
    fetchScratch.clear();
    fetchEngine.fetch(now, count, fetchScratch);
    for (InstRef ref : fetchScratch) {
        fetchBuffer.push_back(ref);
        ++st.fetched;
        ++activity;
        if (timeline) {
            const DynInst &inst = arena.get(ref);
            timeline->record(now, obs::EventKind::Fetch, inst.seq,
                             arena.coldOf(inst).pc,
                             uint8_t(inst.op.cls));
        }
    }
}

// ---------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------

uint64_t
PipelineBase::nextTimedWake() const
{
    if (fetchBuffer.empty())
        return UINT64_MAX;
    return upcoming(arena.get(fetchBuffer.front()).fetchCycle +
                    uint64_t(prm.frontEndDepth));
}

size_t
PipelineBase::totalReady() const
{
    size_t n = 0;
    for (int i = 0; i < numIqs; ++i)
        n += iqTable[i]->numReady();
    return n;
}

void
PipelineBase::idleSkip(uint64_t limit)
{
    if (activity != 0 || totalReady() != 0)
        return;

    // Every deadline is at or after `now`; a redirect expiring at
    // exactly `now` counts too (fetch is unblocked, the next tick
    // must fetch). Completion events are never behind `now`.
    uint64_t wake = wheel.empty() ? UINT64_MAX : wheel.nextCycle();
    wake = std::min(wake, upcoming(fetchEngine.redirectReady()));
    wake = std::min(wake, nextTimedWake());
    if (dbgFlipCycle && !dbgFlipDone)
        wake = std::min(wake, upcoming(dbgFlipCycle));

    // With no deadline nothing can ever change: fetch is held or its
    // buffer is full (otherwise the tick just ended fetched), and no
    // event, ready instruction or timer frees a stage.
    if (wake == UINT64_MAX) {
        KILO_PANIC("deadlock at cycle %lu: %zu in flight, "
                   "%zu in fetch buffer, lsq %zu",
                   (unsigned long)now, globalOrder.size(),
                   fetchBuffer.size(), lsq.size());
    }
    wake = std::min(wake, limit);
    if (wake <= now)
        return;

    // Each skipped cycle would repeat the tick just ended, so it is
    // charged as that tick was: its commit slots to the same stall
    // class, keeping the slot-sum invariant exact, and the per-cycle
    // stall counters by that tick's increments. The wheel frontier
    // moves as the skipped ticks' popDue() calls would have moved it.
    const uint64_t k = wake - now;
    st.stallSlots[size_t(classifyStall())] +=
        k * uint64_t(prm.commitWidth);
    for (size_t i = 0; i < std::size(PerCycleStalls); ++i) {
        uint64_t &c = st.*PerCycleStalls[i];
        c += k * (c - perCycleSnap[i]);
    }
    st.cycles += k;
    now = wake;
    wheel.skipTo(now);
}

void
PipelineBase::run(uint64_t num_insts)
{
    runUntil(st.committed + num_insts, UINT64_MAX);
}

void
PipelineBase::runUntil(uint64_t target_committed, uint64_t cycle_limit)
{
    while (st.committed < target_committed && now < cycle_limit) {
        // Test-only divergence seed for the KILOAUD audit plane:
        // checked before tick() so the flip lands at exactly cycle
        // dbgFlipCycle regardless of how callers slice their
        // runUntil() calls (stepping-invariant by construction).
        if (dbgFlipCycle && !dbgFlipDone && now >= dbgFlipCycle) {
            fetchEngine.debugFlipHistory(dbgFlipMask);
            dbgFlipDone = true;
        }
        tick();
        idleSkip(cycle_limit);
        if (now - lastCommitCycle >= 4000000) {
            if (!globalOrder.empty()) {
                const DynInst &h = arena.get(globalOrder.front());
                IssueQueue *hq = queueById(h.iqId);
                std::fprintf(stderr,
                             "stuck head: seq %lu %s ready=%d "
                             "issued=%d completed=%d srcNotReady=%d "
                             "inLlib=%d inLsq=%d iq=%s\n",
                             (unsigned long)h.seq,
                             h.op.toString().c_str(), h.readyFlag,
                             h.issued, h.completed, h.srcNotReady,
                             h.inLlib, h.inLsq,
                             hq ? hq->name().c_str() : "-");
                if (hq) {
                    InstRef qh = hq->debugFront();
                    if (qh) {
                        const DynInst &q = arena.get(qh);
                        std::fprintf(
                            stderr,
                            "queue head: seq %lu %s ready=%d "
                            "issued=%d srcNotReady=%d\n",
                            (unsigned long)q.seq,
                            q.op.toString().c_str(), q.readyFlag,
                            q.issued, q.srcNotReady);
                    }
                }
            }
            KILO_PANIC("no commit in 4M cycles at cycle %lu "
                       "(in flight %zu)",
                       (unsigned long)now, globalOrder.size());
        }
    }
}

void
PipelineBase::runCycles(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        tick();
}

// ---------------------------------------------------------------------
// Checkpointing and fast-forward
// ---------------------------------------------------------------------

void
PipelineBase::saveState(ckpt::Sink &s) const
{
    // Fixed serialization order; restoreState() mirrors it exactly.
    // Per-cycle scratch (portsUsed, activity, dueBuf, ...) is reset
    // at every beginCycle() and checkpoints are only taken at cycle
    // boundaries, so it is deliberately not stored.
    s.scalar(uint64_t(now));
    s.scalar(uint64_t(lastCommitCycle));
    st.save(s);
    trace.save(s);
    fetchEngine.save(s);
    bp->save(s);
    arena.save(s);
    mem_.save(s);
    scoreboard.save(s);
    lsq.save(s);
    wheel.save(s);
    globalOrder.save(s);
    fetchBuffer.save(s);
    // Only the latch: the flip *configuration* is re-armed by the
    // restoring Session and must never contaminate state digests —
    // a flipped run and a clean run hash identically until the flip
    // cycle actually executes.
    s.scalar(uint8_t(dbgFlipDone));
    saveDerived(s);
}

void
PipelineBase::restoreState(ckpt::Source &s)
{
    now = s.scalar<uint64_t>();
    lastCommitCycle = s.scalar<uint64_t>();
    st.load(s);
    trace.load(s);
    fetchEngine.load(s);
    bp->load(s);
    arena.load(s);
    mem_.load(s);
    scoreboard.load(s);
    lsq.load(s);
    wheel.load(s);
    globalOrder.load(s);
    fetchBuffer.load(s);
    dbgFlipDone = s.scalar<uint8_t>() != 0;
    restoreDerived(s);

    // Scratch state is clear-at-use but clear it anyway so a restore
    // into a mid-cycle-abandoned core cannot leak stale handles.
    portsUsed = 0;
    activity = 0;
    fetchHold = false;
    dueBuf.clear();
    resolvedMispredicts.clear();
    fetchScratch.clear();
}

void
PipelineBase::drain()
{
    fetchHold = true;
    while (!globalOrder.empty() || !fetchBuffer.empty()) {
        tick();
        idleSkip(UINT64_MAX);
    }
    fetchHold = false;
}

void
PipelineBase::fastForward(uint64_t target_seq, FfMode mode)
{
    drain();
    uint64_t seq = fetchEngine.nextSeq();
    if (target_seq <= seq)
        return;

    if (mode == FfMode::Skip) {
        trace.jumpTo(target_seq);
        fetchEngine.redirect(target_seq, now, fetchEngine.history());
        return;
    }

    // Warm: walk every skipped op, evolving cache tags, predictor
    // tables and the global history exactly as correct-path execution
    // would — the structures the next sampled interval depends on.
    uint64_t ghr = fetchEngine.history();
    const bool perfect = bp->isPerfect();
    for (; seq < target_seq; ++seq) {
        trace.release(seq);
        const isa::MicroOp &op = trace.op(seq);
        if (op.isMem()) {
            mem_.warmAccess(op.effAddr);
        } else if (op.isBranch()) {
            if (!perfect)
                bp->train(op.pc, ghr, op.taken);
            ghr = (ghr << 1) | (op.taken ? 1 : 0);
        }
    }
    trace.release(target_seq);
    fetchEngine.redirect(target_seq, now, ghr);
}

void
PipelineBase::resetStats()
{
    // Registry-driven: zero every registered counter and reset the
    // histograms in place (bucket configuration survives). The
    // hierarchy's own resetStats still runs for the stats the
    // registry reads through gauges (MSHR peak/occupancy, the cache
    // arrays' internal counters).
    statsReg.reset();
    mem_.resetStats();
    lastCommitCycle = now;
}

} // namespace kilo::core
