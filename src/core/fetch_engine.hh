/**
 * @file
 * Front end: prediction, fetch bandwidth and squash-replay redirects.
 *
 * The engine walks the trace window, consulting the branch predictor
 * at every branch. Because the trace is correct-path only, a wrong
 * prediction cannot divert fetch down the wrong path; instead the
 * fetched branch is tagged mispredicted and, when it resolves, the
 * core squashes everything younger and calls redirect() — fetch then
 * replays the same micro-ops, modelling the refill penalty and the
 * wasted work without simulating wrong-path instructions (see
 * DESIGN.md, substitution table).
 *
 * Every DynInst in the machine is born here, allocated from the
 * core's InstArena so that commit/squash recycling is total.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "src/core/dyn_inst.hh"
#include "src/core/inst_arena.hh"
#include "src/core/params.hh"
#include "src/pred/predictor.hh"
#include "src/wload/trace_window.hh"

namespace kilo::core
{

/** Instruction fetch with branch prediction and replay. */
class FetchEngine
{
  public:
    FetchEngine(wload::TraceWindow &window,
                pred::BranchPredictor &predictor,
                const CoreParams &params, InstArena &arena);

    /**
     * Fetch up to @p max_count micro-ops at cycle @p now, allocating
     * fresh DynInsts from the arena and appending their handles to
     * @p out. Honours redirect stalls and the stop-at-taken-branch
     * fetch break. Returns the number fetched.
     */
    int fetch(uint64_t now, int max_count, std::vector<InstRef> &out);

    /**
     * Restart fetch after a squash.
     *
     * @param resume_seq  first sequence number to refetch
     * @param ready_cycle cycle fetch may resume
     * @param history     global history after the resolving branch
     */
    void redirect(uint64_t resume_seq, uint64_t ready_cycle,
                  uint64_t history);

    /** True while the redirect stall is in effect. */
    bool blocked(uint64_t now) const { return now < redirectCycle; }

    /** Cycle fetch resumes after the pending redirect. */
    uint64_t redirectReady() const { return redirectCycle; }

    /** Next sequence number fetch will produce. */
    uint64_t nextSeq() const { return fetchSeq; }

    /** Current speculative global history (for checkpoint tests). */
    uint64_t history() const { return ghr; }

    /**
     * Test-only determinism-audit hook: XOR @p mask into the global
     * history, seeding a single deliberate divergence that the
     * KILOAUD plane must localize (the golden_kilodiff ctest). Never
     * called outside PipelineBase::setDebugFlip plumbing.
     */
    void debugFlipHistory(uint64_t mask) { ghr ^= mask; }

    /** Serialize / restore fetch position, redirect stall and global
     *  history. @{ */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        s.template scalar<uint64_t>(fetchSeq);
        s.template scalar<uint64_t>(redirectCycle);
        s.template scalar<uint64_t>(ghr);
    }

    template <typename Source>
    void
    load(Source &s)
    {
        fetchSeq = s.template scalar<uint64_t>();
        redirectCycle = s.template scalar<uint64_t>();
        ghr = s.template scalar<uint64_t>();
    }
    /** @} */

  private:
    wload::TraceWindow &window;
    pred::BranchPredictor &predictor;
    const CoreParams &params;
    InstArena &arena;

    uint64_t fetchSeq = 0;
    uint64_t redirectCycle = 0;
    uint64_t ghr = 0;
};

} // namespace kilo::core

