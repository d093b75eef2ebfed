/**
 * @file
 * Tests of the sweep-sharding subsystem: manifest round-trip and
 * malformed-input rejection, deterministic job→shard partitioning,
 * and the end-to-end orchestrator properties — a 4-worker sharded
 * sweep whose merged JSONL stream is byte-identical to the
 * single-process run on a mixed synthetic/trace matrix, and the
 * crash-retry path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "src/shard/orchestrator.hh"
#include "src/sim/sweep_engine.hh"
#include "src/trace/capture.hh"
#include "src/wload/profile.hh"
#include "src/wload/synthetic.hh"
#include "test_helpers.hh"

using namespace kilo;
using namespace kilo::shard;

namespace
{

/** ctest runs in the build directory, next to the worker binary. */
const char *kWorkerPath = "./kilosim_worker";

/** Fresh temp path, removed at fixture teardown. */
class ShardTest : public ::testing::Test
{
  protected:
    std::string
    tempPath(const std::string &tag, const std::string &suffix = "")
    {
        std::string p = ::testing::TempDir() + "kilo_shard_" + tag +
            "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()->name() + suffix;
        files.push_back(p);
        return p;
    }

    void
    TearDown() override
    {
        for (const auto &f : files)
            std::remove(f.c_str());
    }

    std::vector<std::string> files;
};

/** A small mixed matrix: three machines, synthetic + trace-backed
 *  workloads. Records the trace on first use. */
Manifest
miniManifest(const std::string &trace_path)
{
    {
        wload::SyntheticWorkload inner(wload::profileByName("mcf"));
        trace::CapturingWorkload capture(inner, trace_path,
                                         inner.profile().seed);
        isa::MicroOp buf[256];
        for (int i = 0; i < 256; ++i)
            capture.nextBlock(buf, 256);
        capture.finish();
    }
    Manifest m;
    m.machines = {"r10-64", "kilo", "dkip"};
    m.workloads = {"swim", "trace:" + trace_path};
    m.mems = {"mem-400"};
    m.run.warmupInsts = 2000;
    m.run.measureInsts = 6000;
    return m;
}

std::string
singleProcessJsonl(const Manifest &m)
{
    sim::SweepEngine engine(1);
    auto results = engine.run(m.jobs());
    std::ostringstream os;
    sim::writeJsonRows(os, results);
    return os.str();
}

bool
workerAvailable()
{
    std::ifstream f(kWorkerPath);
    return f.good();
}

} // anonymous namespace

// ------------------------------------------------------- manifest

TEST(ShardManifest, RoundTripsThroughSerialize)
{
    Manifest m;
    m.machines = {"r10-64", "dkip"};
    m.workloads = {"swim", "mcf", "trace:/data/a.ktrc"};
    m.mems = {"mem-400", "l2-11"};
    m.run.warmupInsts = 123;
    m.run.measureInsts = 4567;
    m.run.maxCycles = 1000000;
    m.run.maxWallMs = 2500;
    m.shardIndex = 2;
    m.shardCount = 5;

    Manifest back = Manifest::parse(m.serialize());
    EXPECT_TRUE(back == m);
    // And the canonical text form is a fixed point.
    EXPECT_EQ(back.serialize(), m.serialize());
}

TEST(ShardManifest, ParsesCommentsBlanksAndDefaults)
{
    Manifest m = Manifest::parse("# a sweep\n"
                                 "\n"
                                 "KILOSHARD 1\n"
                                 "machine dkip\n"
                                 "  workload swim  \n"
                                 "mem mem-400\n");
    EXPECT_EQ(m.machines, std::vector<std::string>{"dkip"});
    EXPECT_EQ(m.workloads, std::vector<std::string>{"swim"});
    // Unspecified scalars keep RunConfig defaults; shard defaults to
    // the whole matrix.
    EXPECT_EQ(m.run.warmupInsts, sim::RunConfig().warmupInsts);
    EXPECT_EQ(m.run.measureInsts, sim::RunConfig().measureInsts);
    EXPECT_EQ(m.shardIndex, 0u);
    EXPECT_EQ(m.shardCount, 1u);
}

TEST(ShardManifest, RejectsMalformedInput)
{
    // No header.
    EXPECT_THROW(Manifest::parse("machine dkip\n"), ShardError);
    // Future version.
    EXPECT_THROW(Manifest::parse("KILOSHARD 99\nmachine dkip\n"),
                 ShardError);
    // Unknown directive.
    EXPECT_THROW(Manifest::parse("KILOSHARD 1\nflavour vanilla\n"),
                 ShardError);
    // Directive without value.
    EXPECT_THROW(Manifest::parse("KILOSHARD 1\nmachine\n"),
                 ShardError);
    // Non-numeric scalar.
    EXPECT_THROW(Manifest::parse("KILOSHARD 1\nmachine dkip\n"
                                 "workload swim\nmem mem-400\n"
                                 "warmup soon\n"),
                 ShardError);
    // Duplicate scalar.
    EXPECT_THROW(Manifest::parse("KILOSHARD 1\nmachine dkip\n"
                                 "workload swim\nmem mem-400\n"
                                 "measure 1\nmeasure 2\n"),
                 ShardError);
    // Shard index out of range.
    EXPECT_THROW(Manifest::parse("KILOSHARD 1\nmachine dkip\n"
                                 "workload swim\nmem mem-400\n"
                                 "shard 4/4\n"),
                 ShardError);
    // Bad shard spec syntax.
    EXPECT_THROW(Manifest::parse("KILOSHARD 1\nmachine dkip\n"
                                 "workload swim\nmem mem-400\n"
                                 "shard one/two\n"),
                 ShardError);
    // Empty axes.
    EXPECT_THROW(Manifest::parse("KILOSHARD 1\nworkload swim\n"
                                 "mem mem-400\n"),
                 ShardError);
    EXPECT_THROW(Manifest::parse("KILOSHARD 1\nmachine dkip\n"
                                 "mem mem-400\n"),
                 ShardError);
    EXPECT_THROW(Manifest::parse("KILOSHARD 1\nmachine dkip\n"
                                 "workload swim\n"),
                 ShardError);
    // Error messages carry the source location.
    try {
        Manifest::parse("KILOSHARD 1\nnope x\n");
        FAIL() << "unknown directive accepted";
    } catch (const ShardError &e) {
        EXPECT_NE(std::string(e.what()).find("<string>:2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardManifest, LoadReportsMissingFile)
{
    EXPECT_THROW(Manifest::load("/nonexistent/sweep.manifest"),
                 ShardError);
}

// --------------------------------------------------- partitioning

TEST(ShardPartition, ShardsAreDisjointAndCovering)
{
    const size_t jobs = 23;
    const uint32_t shards = 4;
    std::set<size_t> all;
    for (uint32_t s = 0; s < shards; ++s) {
        auto idx = sim::SweepEngine::shardIndices(jobs, s, shards);
        for (size_t i : idx) {
            EXPECT_LT(i, jobs);
            EXPECT_EQ(i % shards, s); // round-robin ownership
            EXPECT_TRUE(all.insert(i).second)
                << "job " << i << " in two shards";
        }
    }
    EXPECT_EQ(all.size(), jobs);
    // Balanced to within one job.
    for (uint32_t s = 0; s < shards; ++s) {
        auto idx = sim::SweepEngine::shardIndices(jobs, s, shards);
        EXPECT_GE(idx.size(), jobs / shards);
        EXPECT_LE(idx.size(), jobs / shards + 1);
    }
}

TEST(ShardPartition, SubsetRunMatchesFullRunSlice)
{
    sim::RunConfig rc;
    rc.warmupInsts = 2000;
    rc.measureInsts = 5000;
    auto jobs = sim::SweepEngine::matrix(
        {sim::MachineConfig::r10_64()}, {"mcf", "gzip", "swim"},
        {mem::MemConfig::mem400()}, rc);
    sim::SweepEngine engine(1);
    auto full = engine.run(jobs);
    auto idx = sim::SweepEngine::shardIndices(jobs.size(), 1, 2);
    auto part = engine.runSubset(jobs, idx);
    ASSERT_EQ(part.size(), idx.size());
    for (size_t i = 0; i < idx.size(); ++i) {
        EXPECT_EQ(sim::runResultJson(part[i]),
                  sim::runResultJson(full[idx[i]]));
    }
}

// --------------------------------------------------- orchestration

TEST_F(ShardTest, OrchestratorMatchesSingleProcessByteForByte)
{
    if (!workerAvailable())
        GTEST_SKIP() << "kilosim_worker not in CWD";
    Manifest m = miniManifest(tempPath("golden", ".ktrc"));

    OrchestratorConfig cfg;
    cfg.workerPath = kWorkerPath;
    cfg.shards = 4;
    Orchestrator orch(m, cfg);
    std::string merged = orch.run();

    EXPECT_EQ(merged, singleProcessJsonl(m));
    EXPECT_EQ(orch.retries(), 0u);
    EXPECT_EQ(orch.deadlineKills(), 0u);
}

TEST_F(ShardTest, OrchestratorRetriesCrashedShardOnce)
{
    if (!workerAvailable())
        GTEST_SKIP() << "kilosim_worker not in CWD";
    Manifest m = miniManifest(tempPath("retry", ".ktrc"));

    // Crash token: the first worker to claim it aborts; every retry
    // (and every other shard) finds it gone and succeeds.
    std::string token = tempPath("token");
    { std::ofstream(token) << "boom\n"; }

    OrchestratorConfig cfg;
    cfg.workerPath = kWorkerPath;
    cfg.workerArgs = {"--crash-token", token};
    cfg.shards = 2;
    cfg.maxAttempts = 3;
    Orchestrator orch(m, cfg);
    std::string merged = orch.run();

    EXPECT_EQ(merged, singleProcessJsonl(m));
    EXPECT_EQ(orch.retries(), 1u);
}

TEST_F(ShardTest, OrchestratorFailsAfterExhaustedAttempts)
{
    if (!workerAvailable())
        GTEST_SKIP() << "kilosim_worker not in CWD";
    Manifest m = miniManifest(tempPath("fail", ".ktrc"));

    OrchestratorConfig cfg;
    // exec of a nonexistent binary fails every attempt (exit 127).
    cfg.workerPath = "./kilosim_worker_does_not_exist";
    cfg.shards = 2;
    cfg.maxAttempts = 2;
    Orchestrator orch(m, cfg);
    try {
        orch.run();
        FAIL() << "sweep with unrunnable workers succeeded";
    } catch (const ShardError &e) {
        EXPECT_NE(std::string(e.what()).find("failed after 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(ShardTest, SingleShardOrchestrationAlsoMatches)
{
    if (!workerAvailable())
        GTEST_SKIP() << "kilosim_worker not in CWD";
    Manifest m = miniManifest(tempPath("one", ".ktrc"));
    OrchestratorConfig cfg;
    cfg.workerPath = kWorkerPath;
    cfg.shards = 1;
    Orchestrator orch(m, cfg);
    EXPECT_EQ(orch.run(), singleProcessJsonl(m));
}

TEST_F(ShardTest, MoreShardsThanJobsClampAndStillMatch)
{
    if (!workerAvailable())
        GTEST_SKIP() << "kilosim_worker not in CWD";
    Manifest m = miniManifest(tempPath("clamp", ".ktrc"));
    // 3 machines x 2 workloads x 1 mem = 6 jobs; ask for 16 shards.
    OrchestratorConfig cfg;
    cfg.workerPath = kWorkerPath;
    cfg.shards = 16;
    Orchestrator orch(m, cfg);
    EXPECT_EQ(orch.run(), singleProcessJsonl(m));
}

// --------------------------------------------- audited orchestration

namespace
{

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)v);
    return buf;
}

/** The stream an audited run must produce: the plain JSONL rows
 *  followed by one KILOAUD digest line per job, in job order. */
std::string
auditedSingleProcessJsonl(const Manifest &m)
{
    sim::SweepEngine engine(1);
    auto results = engine.run(m.jobs());
    std::ostringstream os;
    sim::writeJsonRows(os, results);
    for (size_t i = 0; i < results.size(); ++i) {
        os << "KILOAUD " << i << " "
           << hex16(results[i].auditRolling) << "\n";
    }
    return os.str();
}

} // anonymous namespace

TEST(ShardManifest, AuditDirectiveRoundTrips)
{
    Manifest m;
    m.machines = {"r10-64"};
    m.workloads = {"swim"};
    m.mems = {"mem-400"};
    m.run.auditIntervalInsts = 2500;
    std::string text = m.serialize();
    EXPECT_NE(text.find("audit 2500\n"), std::string::npos) << text;
    EXPECT_EQ(Manifest::parse(text), m);

    // Off by default: no directive emitted, so pre-audit manifests
    // round-trip byte-identically through a reader that knows it.
    m.run.auditIntervalInsts = 0;
    EXPECT_EQ(m.serialize().find("audit"), std::string::npos);
    EXPECT_EQ(Manifest::parse(m.serialize()), m);
}

TEST_F(ShardTest, AuditedOrchestrationMatchesAuditedSingle)
{
    if (!workerAvailable())
        GTEST_SKIP() << "kilosim_worker not in CWD";
    Manifest m = miniManifest(tempPath("aud", ".ktrc"));
    m.run.auditIntervalInsts = 1500;

    OrchestratorConfig cfg;
    cfg.workerPath = kWorkerPath;
    cfg.shards = 3;
    cfg.audit = true;
    Orchestrator orch(m, cfg);
    std::string merged = orch.run();

    EXPECT_EQ(merged, auditedSingleProcessJsonl(m));
    ASSERT_EQ(orch.telemetry().auditDigests.size(), m.jobCount());
    // No retries happened, so nothing was double-computed.
    EXPECT_EQ(orch.telemetry().auditCrossChecked, 0u);
}

TEST_F(ShardTest, RetriedShardDigestsAreCrossChecked)
{
    if (!workerAvailable())
        GTEST_SKIP() << "kilosim_worker not in CWD";
    Manifest m = miniManifest(tempPath("audretry", ".ktrc"));
    m.run.auditIntervalInsts = 1500;

    // The claiming attempt emits one job (row + digest), then dies;
    // the retry recomputes that job. Both processes were healthy
    // simulations of the same work, so the digests must agree and
    // the sweep must succeed.
    std::string token = tempPath("audtoken");
    { std::ofstream(token) << "boom\n"; }

    OrchestratorConfig cfg;
    cfg.workerPath = kWorkerPath;
    cfg.workerArgs = {"--crash-token", token, "--crash-after", "1"};
    cfg.shards = 1;
    cfg.maxAttempts = 3;
    cfg.audit = true;
    Orchestrator orch(m, cfg);
    std::string merged = orch.run();

    EXPECT_EQ(merged, auditedSingleProcessJsonl(m));
    EXPECT_EQ(orch.retries(), 1u);
    EXPECT_GE(orch.telemetry().auditCrossChecked, 1u);
}

TEST_F(ShardTest, RetriedShardDigestMismatchIsHardError)
{
    if (!workerAvailable())
        GTEST_SKIP() << "kilosim_worker not in CWD";
    Manifest m = miniManifest(tempPath("audbad", ".ktrc"));
    m.run.auditIntervalInsts = 1500;

    // The first attempt claims BOTH tokens: it simulates under the
    // audit plane's divergence seed (different architectural state,
    // different digests) and dies after reporting one job. The retry
    // runs clean — and the orchestrator must refuse to paper over
    // the disagreement between the two attempts.
    std::string crash = tempPath("crashtok");
    std::string flip = tempPath("fliptok");
    { std::ofstream(crash) << "x\n"; }
    { std::ofstream(flip) << "x\n"; }

    OrchestratorConfig cfg;
    cfg.workerPath = kWorkerPath;
    cfg.workerArgs = {"--crash-token", crash, "--crash-after", "1",
                      "--flip-token", flip, "--flip-cycle", "50"};
    cfg.shards = 1;
    cfg.maxAttempts = 3;
    cfg.audit = true;
    Orchestrator orch(m, cfg);
    try {
        orch.run();
        FAIL() << "digest mismatch between attempts went undetected";
    } catch (const ShardError &e) {
        EXPECT_NE(std::string(e.what()).find("audit digest mismatch"),
                  std::string::npos)
            << e.what();
    }
}
