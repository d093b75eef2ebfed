/**
 * @file
 * Tests of the parallel sweep engine: bit-identical results against
 * the serial baseline for every machine model, deterministic result
 * ordering, matrix construction and the JSON row emitter.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/sim/sweep.hh"
#include "src/sim/sweep_engine.hh"

using namespace kilo;
using namespace kilo::sim;

namespace
{

/** Small but representative suite slice (keeps test time bounded). */
std::vector<std::string>
miniSuite()
{
    return {"mcf", "gzip", "swim", "equake"};
}

RunConfig
shortRun()
{
    RunConfig rc;
    rc.warmupInsts = 5000;
    rc.measureInsts = 15000;
    return rc;
}

} // anonymous namespace

TEST(SweepEngine, MatrixIsMachineMajorRowMajor)
{
    auto jobs = SweepEngine::matrix(
        {MachineConfig::r10_64(), MachineConfig::dkip2048()},
        {"mcf", "swim"},
        {mem::MemConfig::mem100(), mem::MemConfig::mem400()},
        RunConfig());
    ASSERT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs[0].machine.name, MachineConfig::r10_64().name);
    EXPECT_EQ(jobs[0].workload, "mcf");
    EXPECT_EQ(jobs[0].mem.name, "MEM-100");
    EXPECT_EQ(jobs[1].mem.name, "MEM-400");
    EXPECT_EQ(jobs[2].workload, "swim");
    EXPECT_EQ(jobs[4].machine.name, MachineConfig::dkip2048().name);
}

TEST(SweepEngine, ThreadCountDefaultsAndOverrides)
{
    SweepEngine four(4);
    EXPECT_EQ(four.threads(), 4u);
    SweepEngine defaulted;
    EXPECT_GE(defaulted.threads(), 1u);
}

/** The acceptance property: a 4-thread sweep is bit-identical to the
 *  serial sweep — same per-workload IPC, same ordering — for all
 *  three machine models. */
TEST(SweepEngine, ParallelBitIdenticalToSerialAllMachines)
{
    const std::vector<MachineConfig> machines = {
        MachineConfig::r10_64(),     // OooCore
        MachineConfig::kilo1024(),   // KiloCore
        MachineConfig::dkip2048(),   // DkipCore
    };
    auto jobs = SweepEngine::matrix(machines, miniSuite(),
                                    {mem::MemConfig::mem400()},
                                    shortRun());

    SweepEngine serial(1);
    SweepEngine parallel(4);
    auto s = serial.run(jobs);
    auto p = parallel.run(jobs);

    ASSERT_EQ(s.size(), jobs.size());
    ASSERT_EQ(p.size(), s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        EXPECT_EQ(s[i].machine, p[i].machine) << "row " << i;
        EXPECT_EQ(s[i].workload, p[i].workload) << "row " << i;
        // Bit-identical, not approximately equal.
        EXPECT_EQ(s[i].ipc, p[i].ipc)
            << s[i].machine << "/" << s[i].workload;
        EXPECT_EQ(s[i].stats.cycles, p[i].stats.cycles)
            << s[i].machine << "/" << s[i].workload;
        EXPECT_EQ(s[i].stats.committed, p[i].stats.committed);
        EXPECT_EQ(s[i].stats.mispredicts, p[i].stats.mispredicts);
        EXPECT_EQ(s[i].snapshot.value("mem_accesses"),
                  p[i].snapshot.value("mem_accesses"));
        EXPECT_EQ(s[i].snapshot.value("l2_misses"),
                  p[i].snapshot.value("l2_misses"));
    }
}

TEST(SweepEngine, RepeatedParallelRunsAreDeterministic)
{
    auto jobs = SweepEngine::matrix({MachineConfig::dkip2048()},
                                    {"mcf", "swim"},
                                    {mem::MemConfig::mem400()},
                                    shortRun());
    SweepEngine engine(4);
    auto a = engine.run(jobs);
    auto b = engine.run(jobs);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ipc, b[i].ipc);
        EXPECT_EQ(a[i].stats.cycles, b[i].stats.cycles);
    }
}

TEST(SweepEngine, RunSuitePreservesSuiteOrder)
{
    SweepEngine engine(4);
    auto suite = miniSuite();
    auto results =
        engine.runSuite(MachineConfig::r10_64(), suite,
                        mem::MemConfig::mem400(), shortRun());
    ASSERT_EQ(results.size(), suite.size());
    for (size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(results[i].workload, suite[i]);
}

TEST(SweepEngine, RunSuiteMatchesLegacySerialHelper)
{
    // sim::runSuite delegates to the engine; pin the equivalence.
    auto suite = std::vector<std::string>{"mcf", "swim"};
    auto via_helper =
        runSuite(MachineConfig::r10_64(), suite,
                 mem::MemConfig::mem400(), shortRun());
    SweepEngine serial(1);
    auto direct = serial.runSuite(MachineConfig::r10_64(), suite,
                                  mem::MemConfig::mem400(),
                                  shortRun());
    ASSERT_EQ(via_helper.size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(via_helper[i].ipc, direct[i].ipc);
}

TEST(SweepEngine, JsonRowsAreWellFormedAndOrdered)
{
    SweepEngine serial(1);
    auto results = serial.runSuite(MachineConfig::r10_64(),
                                   {"mcf", "swim"},
                                   mem::MemConfig::mem400(),
                                   shortRun());
    std::ostringstream os;
    writeJsonRows(os, results);
    std::string text = os.str();

    // One object per line, fields present, suite order preserved.
    size_t lines = 0, pos = 0;
    while ((pos = text.find('\n', pos)) != std::string::npos) {
        ++lines;
        ++pos;
    }
    EXPECT_EQ(lines, 2u);
    EXPECT_LT(text.find("\"workload\":\"mcf\""),
              text.find("\"workload\":\"swim\""));
    EXPECT_NE(text.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(text.find("\"cycles\":"), std::string::npos);
    EXPECT_NE(text.find("\"mp_fraction\":"), std::string::npos);
    EXPECT_NE(text.find("\"mshr_set_p50\":"), std::string::npos);
    EXPECT_NE(text.find("\"mshr_set_p99\":"), std::string::npos);
    EXPECT_NE(text.find("\"mshr_set_max\":"), std::string::npos);

    // Round-trip precision: the serialised IPC parses back exactly.
    size_t ipos = text.find("\"ipc\":") + 6;
    double parsed = std::strtod(text.c_str() + ipos, nullptr);
    EXPECT_EQ(parsed, results[0].ipc);
}
