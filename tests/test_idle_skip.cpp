/**
 * @file
 * Idle skipping is exact. A run that jumps the cycles in which nothing
 * can happen must leave the core in the same state, byte for byte, as
 * one that ticks every cycle (PipelineBase::runCycles, the skip-free
 * path). That covers the cycle count, every statistic including the
 * per-cycle stall counters the skip charges, and the event wheel's
 * pop frontier. Pauses at a cycle limit that falls inside a stall must
 * land on the limit exactly and match too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/ckpt/serial.hh"
#include "src/sim/session.hh"

using namespace kilo;

namespace
{

constexpr uint64_t Insts = 20000;

sim::RunConfig
skipRun()
{
    sim::RunConfig rc;
    rc.warmupInsts = 0;
    rc.measureInsts = Insts;
    return rc;
}

std::vector<uint8_t>
coreBytes(const sim::Session &s)
{
    ckpt::Sink sink;
    s.core().saveState(sink);
    return sink.take();
}

struct Case
{
    const char *machine;
    const char *workload;
};

std::string
caseName(const Case &c)
{
    return std::string(c.machine) + "/" + c.workload;
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const char *m : {"r10-64", "kilo", "dkip"})
        for (const char *w : {"mcf", "swim", "gcc", "wupwise", "parser"})
            cases.push_back({m, w});
    return cases;
}

sim::Session
makeSession(const Case &c)
{
    return sim::Session(sim::MachineConfig::byName(c.machine),
                        c.workload, mem::MemConfig::mem400(),
                        skipRun());
}

} // namespace

// The end state of an idle-skipping run equals ticking every one of
// its cycles.
TEST(IdleSkip, RunMatchesTickingEveryCycle)
{
    for (const Case &c : allCases()) {
        sim::Session skipping = makeSession(c);
        skipping.runFor(Insts);
        ASSERT_GE(skipping.measuredCommitted(), Insts) << caseName(c);

        sim::Session ticking = makeSession(c);
        ticking.core().runCycles(skipping.core().cycle());
        EXPECT_EQ(ticking.core().cycle(), skipping.core().cycle())
            << caseName(c);
        EXPECT_EQ(ticking.measuredCommitted(),
                  skipping.measuredCommitted())
            << caseName(c);
        EXPECT_TRUE(coreBytes(ticking) == coreBytes(skipping))
            << caseName(c) << ": state differs after "
            << skipping.core().cycle() << " cycles";
    }
}

// step(n) stops exactly at its cycle limit even when that limit falls
// inside a long stall, and the paused state (the wheel frontier
// included) equals ticking to the same cycle. With a prime stride over
// memory-bound runs most pauses land inside an off-chip stall.
TEST(IdleSkip, PausesInsideStallsMatchTicking)
{
    constexpr uint64_t Stride = 997;
    for (const Case &c : allCases()) {
        sim::Session stepped = makeSession(c);
        sim::Session ticking = makeSession(c);
        int pauses = 0;
        while (!stepped.finished() && pauses < 40) {
            uint64_t cap = stepped.core().cycle() + Stride;
            stepped.step(Stride);
            if (!stepped.finished()) {
                ASSERT_EQ(stepped.core().cycle(), cap) << caseName(c);
            }
            ticking.core().runCycles(stepped.core().cycle() -
                                     ticking.core().cycle());
            ASSERT_TRUE(coreBytes(ticking) == coreBytes(stepped))
                << caseName(c) << ": state differs at pause " << pauses
                << ", cycle " << stepped.core().cycle();
            ++pauses;
        }
    }
}
