/**
 * @file
 * KILOAUD first-divergence bisection (the kilodiff engine).
 *
 * src/obs/audit.hh answers "which interval diverged first"; this
 * module answers "which cycle". Given two run specifications and
 * their recorded KILOAUD streams, bisect():
 *
 *   1. finds the first divergent record index k (obs::firstDivergence);
 *   2. replays both runs to the last agreeing boundary (record k-1),
 *      verifying en route that the live audit prefix matches the
 *      input streams (else the streams are not from these specs);
 *   3. takes a Session::checkpoint() of each run there, then binary
 *      searches the cycle range (lastAgree.cycle, firstDiverge.cycle]
 *      by restore + step-to-cycle + Session::stateDigest(), narrowing
 *      to the first cycle whose execution changed the digest;
 *   4. optionally re-replays a window around that cycle with an
 *      obs::Timeline attached and dumps Konata + Chrome-trace views
 *      of both runs for eyeball diffing.
 *
 * The search assumes divergence is persistent — once the two state
 * trajectories split they never re-converge bit-exactly within the
 * interval. A hash collision or a self-healing divergence violates
 * the P(lo)=agree / P(hi)=disagree invariant; both endpoints are
 * verified and a violation throws obs::AuditError rather than
 * reporting a wrong cycle.
 *
 * Sits above src/sim (drives whole Sessions) like src/sample and
 * src/shard: declared `obs_audit: ckpt mem obs sim` in
 * src/lint/layers.
 */

#pragma once

#include <cstdint>
#include <string>

#include "src/obs/audit.hh"
#include "src/sim/config.hh"
#include "src/sim/simulator.hh"

namespace kilo::obs_audit
{

/** Everything needed to (re)construct one auditable run. */
struct RunSpec
{
    std::string machine;   ///< sim::MachineConfig::byName
    std::string workload;  ///< preset or "trace:<path>"
    std::string mem;       ///< mem::MemConfig::byName
    sim::RunConfig rc;     ///< must carry auditIntervalInsts != 0

    /**
     * Test-only divergence seed: when non-zero, XOR flipMask into
     * the fetch global history at the first simulated cycle >=
     * flipCycle (warm-up included), through
     * core::PipelineBase::setDebugFlip. Lets kilodiff and the audit
     * tests plant a known single-bit fault and check that the audit
     * plane localizes it. @{
     */
    uint64_t flipCycle = 0;
    uint64_t flipMask = 1;
    /** @} */
};

/** Run @p spec to completion and return its live KILOAUD stream. */
obs::AuditStream recordRun(const RunSpec &spec);

/** Outcome of a bisection. */
struct BisectResult
{
    bool diverged = false;

    /** First divergent record index (obs::firstDivergence). */
    long record = -1;

    /**
     * First divergent cycle: the absolute cycle whose execution first
     * made the two state digests differ (its boundary state still
     * agrees; the state one cycle later does not).
     */
    uint64_t firstDivergentCycle = 0;

    /** State digests one cycle past the divergence. @{ */
    uint64_t digestA = 0;
    uint64_t digestB = 0;
    /** @} */

    /** Timeline dump paths (empty when no dumpPrefix given). @{ */
    std::string konataA, konataB;
    std::string chromeA, chromeB;
    /** @} */
};

/**
 * Narrow the first divergence between @p a and @p b (whose recorded
 * streams are @p sa / @p sb) to a cycle. When @p dump_prefix is
 * non-empty, writes `<prefix>_a.konata`, `<prefix>_b.konata`,
 * `<prefix>_a.json`, `<prefix>_b.json` covering the divergent cycle
 * plus @p margin_cycles of context. Throws obs::AuditError when the
 * streams do not match live replays of the specs, when the
 * divergence precedes the first audit boundary's checkpointable
 * window, or when the persistence assumption fails.
 */
BisectResult bisect(const RunSpec &a, const RunSpec &b,
                    const obs::AuditStream &sa,
                    const obs::AuditStream &sb,
                    const std::string &dump_prefix = "",
                    uint64_t margin_cycles = 200);

} // namespace kilo::obs_audit
