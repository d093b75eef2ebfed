/**
 * @file
 * Tests of the stepwise run API: a Session advanced via any sequence
 * of step()/runFor() calls must be bit-identical — cycles, committed,
 * the entire JSONL row — to one-shot Simulator::run, across all three
 * machine models; deadline aborts must truncate cleanly; interval
 * sampling must record the IPC-over-time series without perturbing
 * timing.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"
#include "src/wload/synthetic.hh"

using namespace kilo;
using namespace kilo::sim;

namespace
{

RunConfig
shortRun()
{
    RunConfig rc;
    rc.warmupInsts = 5000;
    rc.measureInsts = 15000;
    return rc;
}

std::vector<MachineConfig>
allMachines()
{
    return {MachineConfig::r10_64(), MachineConfig::kilo1024(),
            MachineConfig::dkip2048()};
}

} // anonymous namespace

/** The acceptance property: stepping is exact, for every machine. */
TEST(Session, StepBitIdenticalToOneShotAllMachines)
{
    for (const auto &machine : allMachines()) {
        auto one_shot = Simulator::run(machine, "mcf",
                                       mem::MemConfig::mem400(),
                                       shortRun());

        Session session(machine, "mcf", mem::MemConfig::mem400(),
                        shortRun());
        session.warmup();
        size_t steps = 0;
        while (!session.finished()) {
            // Odd quantum on purpose: boundaries must not matter.
            session.step(777);
            ++steps;
        }
        auto stepped = session.finish();

        EXPECT_GT(steps, 1u) << machine.name;
        EXPECT_EQ(stepped.stats.cycles, one_shot.stats.cycles)
            << machine.name;
        EXPECT_EQ(stepped.stats.committed, one_shot.stats.committed)
            << machine.name;
        EXPECT_EQ(stepped.stats.mispredicts,
                  one_shot.stats.mispredicts) << machine.name;
        EXPECT_EQ(stepped.snapshot.value("mem_accesses"),
                  one_shot.snapshot.value("mem_accesses"))
            << machine.name;
        // Byte-identical, the strongest form: the whole JSONL row.
        EXPECT_EQ(runResultJson(stepped), runResultJson(one_shot))
            << machine.name;
    }
}

TEST(Session, RunForBitIdenticalToOneShot)
{
    auto machine = MachineConfig::dkip2048();
    auto one_shot = Simulator::run(machine, "swim",
                                   mem::MemConfig::mem400(),
                                   shortRun());

    Session session(machine, "swim", mem::MemConfig::mem400(),
                    shortRun());
    uint64_t total = 0;
    // warmup() is implied by the first advance; chunks are uneven.
    total += session.runFor(1234);
    total += session.runFor(6789);
    while (!session.finished())
        total += session.runFor(3000);
    auto stepped = session.finish();

    EXPECT_EQ(total, stepped.stats.committed);
    EXPECT_EQ(runResultJson(stepped), runResultJson(one_shot));
}

TEST(Session, FinishedSemantics)
{
    Session session(MachineConfig::r10_64(), "gzip",
                    mem::MemConfig::mem400(), shortRun());
    EXPECT_FALSE(session.finished());
    session.warmup();
    EXPECT_FALSE(session.finished());
    session.run();
    EXPECT_TRUE(session.finished());
    EXPECT_FALSE(session.aborted());
    auto res = session.finish();
    EXPECT_FALSE(res.aborted);
    EXPECT_GE(res.stats.committed, shortRun().measureInsts);
    // A finished session steps no further.
    EXPECT_EQ(session.step(1000), 0u);
}

TEST(Session, DeadlineAbortTruncatesRun)
{
    RunConfig rc = shortRun();
    rc.maxCycles = 2000; // mcf on R10-64 needs ~300k cycles
    Session session(MachineConfig::r10_64(), "mcf",
                    mem::MemConfig::mem400(), rc);
    session.warmup();
    session.run();

    EXPECT_TRUE(session.finished());
    EXPECT_TRUE(session.aborted());
    auto res = session.finish();
    EXPECT_TRUE(res.aborted);
    EXPECT_LT(res.stats.committed, rc.measureInsts);
    // Idle skips stop at the deadline, so the region ends on it.
    EXPECT_EQ(res.stats.cycles, rc.maxCycles);
    // The truncated region still reports coherent stats.
    EXPECT_GT(res.stats.committed, 0u);
    EXPECT_NEAR(res.ipc,
                double(res.stats.committed) / double(res.stats.cycles),
                1e-9);
}

TEST(Session, DeadlineAbortThroughSimulatorAndSweepEngine)
{
    RunConfig rc = shortRun();
    // mcf on R10-64 needs ~290k cycles for the 15k-inst region; gzip
    // needs ~45k. A 100k deadline kills one and spares the other.
    rc.maxCycles = 100000;
    // The per-job deadline flows through the one-shot wrapper ...
    auto res = Simulator::run(MachineConfig::r10_64(), "mcf",
                              mem::MemConfig::mem400(), rc);
    EXPECT_TRUE(res.aborted);

    // ... and through sweep matrices: the hung-job guard for
    // cluster-scale sweeps. Unaffordable jobs finish early, cheap
    // jobs complete normally, ordering is preserved.
    auto jobs = SweepEngine::matrix({MachineConfig::r10_64()},
                                    {"mcf", "gzip"},
                                    {mem::MemConfig::mem400()}, rc);
    SweepEngine engine(1);
    auto results = engine.run(jobs);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].aborted);
    EXPECT_LT(results[0].stats.committed, rc.measureInsts);
    EXPECT_FALSE(results[1].aborted);
    EXPECT_GE(results[1].stats.committed, rc.measureInsts);
}

TEST(Session, IntervalSamplingRecordsIpcOverTime)
{
    RunConfig rc = shortRun();
    rc.intervalInsts = 5000;
    Session session(MachineConfig::dkip2048(), "swim",
                    mem::MemConfig::mem400(), rc);
    session.warmup();
    session.run();
    auto res = session.finish();

    ASSERT_EQ(res.intervals.size(), 3u); // 15000 / 5000
    uint64_t prev_committed = 0, prev_cycles = 0;
    uint64_t delta_sum = 0;
    for (size_t i = 0; i < res.intervals.size(); ++i) {
        const auto &iv = res.intervals[i];
        EXPECT_EQ(iv.index, i);
        EXPECT_GE(iv.committed, (i + 1) * rc.intervalInsts);
        EXPECT_GT(iv.cycles, prev_cycles);
        EXPECT_EQ(iv.deltaCommitted, iv.committed - prev_committed);
        EXPECT_EQ(iv.deltaCycles, iv.cycles - prev_cycles);
        EXPECT_GT(iv.intervalIpc(), 0.0);
        // The cumulative snapshot matches the boundary position.
        EXPECT_EQ(uint64_t(iv.snapshot.value("committed")),
                  iv.committed);
        EXPECT_EQ(uint64_t(iv.snapshot.value("cycles")), iv.cycles);
        prev_committed = iv.committed;
        prev_cycles = iv.cycles;
        delta_sum += iv.deltaCommitted;
    }
    EXPECT_EQ(delta_sum, res.intervals.back().committed);

    // The final sample sits at the end of the measured region.
    EXPECT_EQ(res.intervals.back().committed, res.stats.committed);
    EXPECT_EQ(res.intervals.back().cycles, res.stats.cycles);
}

TEST(Session, IntervalSamplingDoesNotPerturbTiming)
{
    RunConfig plain = shortRun();
    RunConfig sampled = shortRun();
    sampled.intervalInsts = 1000;

    auto a = Simulator::run(MachineConfig::kilo1024(), "equake",
                            mem::MemConfig::mem400(), plain);
    auto b = Simulator::run(MachineConfig::kilo1024(), "equake",
                            mem::MemConfig::mem400(), sampled);
    EXPECT_EQ(b.intervals.size(), 15u);
    EXPECT_EQ(runResultJson(a), runResultJson(b));
}

TEST(Session, WriteIntervalRowsEmitsOneRowPerSample)
{
    RunConfig rc = shortRun();
    rc.intervalInsts = 5000;
    auto res = Simulator::run(MachineConfig::dkip2048(), "swim",
                              mem::MemConfig::mem400(), rc);
    std::ostringstream os;
    writeIntervalRows(os, res);
    std::string text = os.str();

    size_t lines = 0, pos = 0;
    while ((pos = text.find('\n', pos)) != std::string::npos) {
        ++lines;
        ++pos;
    }
    EXPECT_EQ(lines, res.intervals.size());
    EXPECT_NE(text.find("\"interval\":0"), std::string::npos);
    EXPECT_NE(text.find("\"interval_ipc\":"), std::string::npos);
    EXPECT_NE(text.find("\"interval_cycles\":"), std::string::npos);
    // Row stats ride along for each sample.
    EXPECT_NE(text.find("\"mshr_set_max\":"), std::string::npos);
}

TEST(Session, SnapshotSamplesMidFlight)
{
    Session session(MachineConfig::dkip2048(), "swim",
                    mem::MemConfig::mem400(), shortRun());
    session.warmup();
    session.runFor(4000);
    auto early = session.snapshot();
    session.run();
    auto late = session.snapshot();

    EXPECT_GE(early.value("committed"), 4000.0);
    EXPECT_GT(late.value("committed"), early.value("committed"));
    EXPECT_GT(late.value("cycles"), early.value("cycles"));
    EXPECT_EQ(uint64_t(late.value("committed")),
              session.measuredCommitted());
}

TEST(Session, BorrowedWorkloadMatchesByName)
{
    auto by_name = Simulator::run(MachineConfig::r10_64(), "gzip",
                                  mem::MemConfig::mem400(),
                                  shortRun());
    auto wl = wload::makeWorkload("gzip");
    Session session(MachineConfig::r10_64(), *wl,
                    mem::MemConfig::mem400(), shortRun());
    session.warmup();
    while (!session.finished())
        session.step(10000);
    auto borrowed = session.finish();
    EXPECT_EQ(runResultJson(borrowed), runResultJson(by_name));
}

TEST(Session, ResultCarriesSnapshotAndLegacyFieldsAgree)
{
    auto res = Simulator::run(MachineConfig::dkip2048(), "swim",
                              mem::MemConfig::mem400(), shortRun());
    ASSERT_FALSE(res.snapshot.empty());
    // The ipc/stats convenience fields and the snapshot describe the
    // same run.
    EXPECT_DOUBLE_EQ(res.snapshot.value("ipc"), res.ipc);
    EXPECT_EQ(uint64_t(res.snapshot.value("cycles")),
              res.stats.cycles);
}

TEST(Session, WallClockDeadlineAborts)
{
    // A 100M-instruction region cannot complete inside 1 ms of host
    // time; the wall deadline must stop it and flag the abort. The
    // assertion is on the flag, not on how far the run got — wall
    // aborts are inherently host-speed dependent.
    RunConfig rc;
    rc.warmupInsts = 1000;
    rc.measureInsts = 100000000;
    rc.maxWallMs = 1;
    auto res = Simulator::run(MachineConfig::r10_64(), "swim",
                              mem::MemConfig::mem400(), rc);
    EXPECT_TRUE(res.aborted);
    EXPECT_LT(res.stats.committed, rc.measureInsts);
}

TEST(Session, WallClockDeadlineOffIsBitIdentical)
{
    // An armed-but-unreached wall deadline only chunks the engine's
    // runUntil quanta, which Session stepping guarantees is exact:
    // the result row must match the no-deadline run byte for byte.
    RunConfig plain = shortRun();
    RunConfig walled = shortRun();
    walled.maxWallMs = 600000; // ten minutes: never reached
    auto a = Simulator::run(MachineConfig::dkip2048(), "mcf",
                            mem::MemConfig::mem400(), plain);
    auto b = Simulator::run(MachineConfig::dkip2048(), "mcf",
                            mem::MemConfig::mem400(), walled);
    EXPECT_FALSE(b.aborted);
    EXPECT_EQ(runResultJson(a), runResultJson(b));
}
