/**
 * @file
 * Tests of the observability layer (src/obs/): the timeline ring,
 * zero-perturbation capture, the Konata export golden, the
 * commit-slot stall attribution invariant, the heartbeat wire
 * format, and the session self-profiler.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/obs/export.hh"
#include "src/obs/heartbeat.hh"
#include "src/obs/profiler.hh"
#include "src/obs/timeline.hh"
#include "src/sample/sampled_run.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"
#include "src/stats/json.hh"

using namespace kilo;

namespace
{

/** Sum of every stall-slot counter. */
uint64_t
stallSlotSum(const core::CoreStats &st)
{
    uint64_t sum = 0;
    for (uint64_t v : st.stallSlots)
        sum += v;
    return sum;
}

} // anonymous namespace

// ------------------------------------------------------- timeline

TEST(Timeline, RecordsEventsInOrder)
{
    obs::Timeline t(16);
    EXPECT_EQ(t.capacity(), 16u);
    t.record(5, obs::EventKind::Fetch, 1, 0x40, 3);
    t.record(6, obs::EventKind::Rename, 1);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.data()[0].cycle, 5u);
    EXPECT_EQ(t.data()[0].kind, obs::EventKind::Fetch);
    EXPECT_EQ(t.data()[0].seq, 1u);
    EXPECT_EQ(t.data()[0].payload, 0x40u);
    EXPECT_EQ(t.data()[0].a, 3u);
    EXPECT_EQ(t.data()[1].kind, obs::EventKind::Rename);

    t.clear();
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(Timeline, OverflowDropsAndCounts)
{
    obs::Timeline t(8);
    for (uint64_t i = 0; i < 20; ++i)
        t.record(i, obs::EventKind::Commit, i);
    EXPECT_EQ(t.size(), 8u);
    EXPECT_EQ(t.dropped(), 12u);
    // The ring keeps the OLDEST events (drop-new policy): the head
    // of a capture stays intact rather than sliding silently.
    EXPECT_EQ(t.data()[0].seq, 0u);
    EXPECT_EQ(t.data()[7].seq, 7u);
}

// ------------------------------------------- capture perturbation

// Attaching a timeline must not move a single cycle: two identical
// runs, one instrumented and one not, end with bit-identical timing
// statistics (the instrumented run merely ALSO has the capture).
TEST(Capture, TimelineDoesNotPerturbTiming)
{
    sim::RunConfig rc;
    rc.warmupInsts = 500;
    rc.measureInsts = 3000;

    auto machine = sim::MachineConfig::dkip2048();
    auto mem = mem::MemConfig::mem400();

    sim::Session plain(machine, "mcf", mem, rc);
    plain.run();
    sim::RunResult base = plain.finish();

    obs::Timeline timeline(1 << 16);
    sim::Session instrumented(machine, "mcf", mem, rc);
    instrumented.core().attachTimeline(&timeline);
    instrumented.run();
    sim::RunResult obs_run = instrumented.finish();

    EXPECT_GT(timeline.size(), 0u);
    EXPECT_EQ(base.stats.cycles, obs_run.stats.cycles);
    EXPECT_EQ(base.stats.committed, obs_run.stats.committed);
    EXPECT_EQ(base.stats.squashed, obs_run.stats.squashed);
    EXPECT_EQ(stallSlotSum(base.stats),
              stallSlotSum(obs_run.stats));
    // The whole JSONL row, not just headline numbers.
    auto row = [](const stats::Snapshot &snap) {
        return stats::JsonRowBuilder().rowStats(snap).str();
    };
    EXPECT_EQ(row(base.snapshot), row(obs_run.snapshot));
}

// --------------------------------------------------- konata golden

// The pinned 1k-op capture (tools/pipeview defaults) renders to
// exactly the checked-in golden; regenerate with
//     build/pipeview --konata tests/data/pipeview_1k.golden
// after an intentional timing change (CI diffs the same bytes).
TEST(Export, KonataGoldenFor1kOpTrace)
{
    sim::RunConfig rc;
    rc.warmupInsts = 0;
    rc.measureInsts = 1000;

    obs::Timeline timeline(1 << 16);
    sim::Session session(sim::MachineConfig::dkip2048(), "mcf",
                         mem::MemConfig::mem400(), rc);
    session.core().attachTimeline(&timeline);
    session.run();
    EXPECT_EQ(timeline.dropped(), 0u);

    std::string konata = obs::konataText(timeline);
    ASSERT_FALSE(konata.empty());

    std::ifstream golden(std::string(KILO_SOURCE_DIR) +
                         "/tests/data/pipeview_1k.golden");
    ASSERT_TRUE(golden.good())
        << "missing tests/data/pipeview_1k.golden";
    std::stringstream buf;
    buf << golden.rdbuf();
    const std::string &expected = buf.str();

    // On mismatch report the first differing line, not a 600 KB blob.
    if (konata != expected) {
        std::istringstream got_s(konata), want_s(expected);
        std::string got_line, want_line;
        size_t line = 1;
        while (std::getline(got_s, got_line) &&
               std::getline(want_s, want_line) &&
               got_line == want_line)
            ++line;
        FAIL() << "Konata export diverges from golden at line "
               << line << ":\n  golden: " << want_line
               << "\n  got:    " << got_line;
    }
}

TEST(Export, CollectSeparatesReusedSequenceNumbers)
{
    // A squash rewinds the fetch sequence; the refetched correct
    // path reuses seq 7. The exporter must keep the two dynamic
    // instances apart instead of merging a squashed lifecycle into
    // a committed one.
    obs::Timeline t(16);
    t.record(10, obs::EventKind::Fetch, 7, 0x100, 0);
    t.record(12, obs::EventKind::Squash, 7);
    t.record(20, obs::EventKind::Fetch, 7, 0x200, 0);
    t.record(21, obs::EventKind::Rename, 7);
    t.record(25, obs::EventKind::Commit, 7);

    auto insts = obs::collectInstructions(t);
    ASSERT_EQ(insts.size(), 2u);
    EXPECT_TRUE(insts[0].squashed);
    EXPECT_EQ(insts[0].pc, 0x100u);
    EXPECT_EQ(insts[0].commit, obs::InstRecord::Unseen);
    EXPECT_FALSE(insts[1].squashed);
    EXPECT_EQ(insts[1].pc, 0x200u);
    EXPECT_EQ(insts[1].commit, 25u);

    std::string konata = obs::konataText(t);
    EXPECT_NE(konata.find("O3PipeView:retire:0:store:0"),
              std::string::npos);
    EXPECT_NE(konata.find("O3PipeView:retire:25:store:0"),
              std::string::npos);
}

// ---------------------------------------------- stall attribution

// Plane 2's accounting identity: over an exactly simulated measured
// region, every commit slot of every cycle is either a committed
// instruction or one attributed stall slot — on all three machine
// kinds, including through idle skips.
TEST(StallAttribution, SlotsSumToWidthTimesCycles)
{
    // mcf and swim are where idle skips are longest.
    for (const char *name : {"r10-64", "kilo", "dkip"}) {
        for (const char *wl : {"mcf", "swim"}) {
            sim::RunConfig rc;
            rc.warmupInsts = 1000;
            rc.measureInsts = 5000;

            auto machine = sim::MachineConfig::byName(name);
            sim::Session session(machine, wl, mem::MemConfig::mem400(),
                                 rc);
            session.run();
            sim::RunResult res = session.finish();

            uint64_t width =
                uint64_t(session.core().params().commitWidth);
            EXPECT_EQ(stallSlotSum(res.stats) + res.stats.committed,
                      width * res.stats.cycles)
                << name << "/" << wl;
            EXPECT_GT(stallSlotSum(res.stats), 0u) << name << "/" << wl;
        }
    }
}

// The decoupled bucket only exists on machines with a slow lane.
TEST(StallAttribution, DecoupledBucketStaysZeroOnOoo)
{
    sim::RunConfig rc;
    rc.warmupInsts = 500;
    rc.measureInsts = 3000;
    sim::Session session(sim::MachineConfig::r10_64(), "mcf",
                         mem::MemConfig::mem400(), rc);
    session.run();
    sim::RunResult res = session.finish();
    EXPECT_EQ(res.stats.stallSlots[size_t(
                  core::StallReason::Decoupled)],
              0u);
}

// ------------------------------------------------------ heartbeat

TEST(Heartbeat, SerializeParseRoundTrip)
{
    obs::Heartbeat hb;
    hb.shard = 3;
    hb.jobsDone = 7;
    hb.jobsTotal = 12;
    hb.lastJob = 31;
    hb.instsDone = 700000;
    hb.elapsedMs = 5321;
    hb.lastJobWallMs = 740;

    std::string line = obs::serializeHeartbeat(hb);
    EXPECT_EQ(line.rfind("KILOHB ", 0), 0u);

    obs::Heartbeat got;
    ASSERT_TRUE(obs::parseHeartbeat(line, got));
    EXPECT_EQ(got.shard, hb.shard);
    EXPECT_EQ(got.jobsDone, hb.jobsDone);
    EXPECT_EQ(got.jobsTotal, hb.jobsTotal);
    EXPECT_EQ(got.lastJob, hb.lastJob);
    EXPECT_EQ(got.instsDone, hb.instsDone);
    EXPECT_EQ(got.elapsedMs, hb.elapsedMs);
    EXPECT_EQ(got.lastJobWallMs, hb.lastJobWallMs);
}

TEST(Heartbeat, RejectsNonHeartbeatLines)
{
    obs::Heartbeat out;
    out.shard = -42; // canary: rejects must not touch out
    EXPECT_FALSE(obs::parseHeartbeat("", out));
    EXPECT_FALSE(obs::parseHeartbeat("error: boom", out));
    EXPECT_FALSE(obs::parseHeartbeat("KILOHB", out));
    EXPECT_FALSE(obs::parseHeartbeat("KILOHB 1 2 3", out));
    EXPECT_FALSE(
        obs::parseHeartbeat("KILOHB 1 2 3 4 5 6 7 trailing", out));
    EXPECT_FALSE(
        obs::parseHeartbeat("XKILOHB 1 2 3 4 5 6 7", out));
    EXPECT_EQ(out.shard, -42);
}

// ------------------------------------------------------- profiler

TEST(Profiler, AccumulatesScopesAndReports)
{
    obs::Profiler prof;
    {
        obs::Profiler::Scope a(&prof, "warmup");
    }
    {
        obs::Profiler::Scope b(&prof, "measure");
    }
    {
        obs::Profiler::Scope c(&prof, "measure");
    }
    ASSERT_EQ(prof.phases().size(), 2u);
    EXPECT_EQ(prof.phases()[0].name, "warmup");
    EXPECT_EQ(prof.phases()[0].count, 1u);
    EXPECT_EQ(prof.phases()[1].name, "measure");
    EXPECT_EQ(prof.phases()[1].count, 2u);

    std::string report = prof.report();
    EXPECT_NE(report.find("warmup"), std::string::npos);
    EXPECT_NE(report.find("measure"), std::string::npos);

    // Null profiler: scopes are inert.
    obs::Profiler::Scope none(nullptr, "ignored");
}

TEST(Profiler, SessionPhasesShowUp)
{
    sim::RunConfig rc;
    rc.warmupInsts = 200;
    rc.measureInsts = 500;
    obs::Profiler prof;
    sim::Session session(sim::MachineConfig::r10_64(), "gzip",
                         mem::MemConfig::mem400(), rc);
    session.attachProfiler(&prof);
    session.run();
    session.finish();

    bool saw_warmup = false, saw_measure = false, saw_finish = false;
    for (const auto &p : prof.phases()) {
        if (p.name == "warmup")
            saw_warmup = true;
        if (p.name == "measure")
            saw_measure = true;
        if (p.name == "finish")
            saw_finish = true;
    }
    EXPECT_TRUE(saw_warmup);
    EXPECT_TRUE(saw_measure);
    EXPECT_TRUE(saw_finish);
}

TEST(Profiler, SampledRunPhasesShowUp)
{
    sim::RunConfig rc;
    rc.warmupInsts = 1000;
    rc.measureInsts = 10000;
    rc.numClusters = 3;

    obs::Profiler prof;
    sample::SampledResult with = sample::runSampled(
        sim::MachineConfig::r10_64(), "swim",
        mem::MemConfig::mem400(), rc, &prof);

    // Every methodology stage appears exactly once.
    ASSERT_EQ(prof.phases().size(), 4u);
    EXPECT_EQ(prof.phases()[0].name, "fingerprint");
    EXPECT_EQ(prof.phases()[1].name, "cluster");
    EXPECT_EQ(prof.phases()[2].name, "simulate");
    EXPECT_EQ(prof.phases()[3].name, "reconstruct");
    for (const auto &p : prof.phases())
        EXPECT_EQ(p.count, 1u) << p.name;

    // Zero-perturbation: the profiler observes wall time only; the
    // reconstructed row is identical with and without it.
    sample::SampledResult without = sample::runSampled(
        sim::MachineConfig::r10_64(), "swim",
        mem::MemConfig::mem400(), rc);
    EXPECT_EQ(sim::runResultJson(with.result),
              sim::runResultJson(without.result));
}

// ------------------------------------------- heartbeat robustness

namespace
{

/**
 * Minimal replica of the orchestrator's stderr drain: append
 * arbitrarily-sized chunks, split on newlines, classify each
 * complete line as heartbeat or passthrough.
 */
struct LineDrain
{
    std::string buf;
    std::vector<obs::Heartbeat> beats;
    std::vector<std::string> passthrough;

    void
    feed(const std::string &chunk)
    {
        buf += chunk;
        size_t pos = 0;
        size_t eol;
        while ((eol = buf.find('\n', pos)) != std::string::npos) {
            std::string line = buf.substr(pos, eol - pos);
            pos = eol + 1;
            obs::Heartbeat hb;
            if (obs::parseHeartbeat(line, hb))
                beats.push_back(hb);
            else
                passthrough.push_back(line);
        }
        buf.erase(0, pos);
    }
};

} // anonymous namespace

TEST(Heartbeat, ParsesStreamSplitAtEveryByteBoundary)
{
    obs::Heartbeat a, b;
    a.shard = 0;
    a.jobsDone = 1;
    a.jobsTotal = 4;
    a.lastJob = 0;
    a.instsDone = 123456;
    a.elapsedMs = 10;
    a.lastJobWallMs = 10;
    b = a;
    b.shard = 2;
    b.jobsDone = 2;
    b.lastJob = 6;

    std::string stream = obs::serializeHeartbeat(a) + "\n" +
                         "warning: something odd\n" +
                         obs::serializeHeartbeat(b) + "\n";

    // However a pipe fragments the byte stream — including splits
    // mid-tag and mid-number — reassembly by lines must recover
    // exactly both heartbeats and the diagnostic in between.
    for (size_t cut = 0; cut <= stream.size(); ++cut) {
        LineDrain drain;
        drain.feed(stream.substr(0, cut));
        drain.feed(stream.substr(cut));
        ASSERT_EQ(drain.beats.size(), 2u) << "cut at " << cut;
        EXPECT_EQ(drain.beats[0].shard, a.shard);
        EXPECT_EQ(drain.beats[0].instsDone, a.instsDone);
        EXPECT_EQ(drain.beats[1].shard, b.shard);
        EXPECT_EQ(drain.beats[1].lastJob, b.lastJob);
        ASSERT_EQ(drain.passthrough.size(), 1u);
        EXPECT_EQ(drain.passthrough[0], "warning: something odd");
        EXPECT_TRUE(drain.buf.empty());
    }
}

TEST(Heartbeat, TruncatedLineIsNotAHeartbeat)
{
    obs::Heartbeat hb;
    hb.shard = 1;
    hb.jobsDone = 3;
    hb.jobsTotal = 9;
    hb.lastJob = 7;
    hb.instsDone = 999999;
    hb.elapsedMs = 1234;
    hb.lastJobWallMs = 56;
    std::string line = obs::serializeHeartbeat(hb);

    // A worker killed mid-write leaves a prefix. Any prefix that
    // loses a whole field is rejected outright by the parser.
    obs::Heartbeat out;
    size_t last_field = line.rfind(' ') + 1;
    for (size_t n = 0; n < last_field; ++n)
        EXPECT_FALSE(obs::parseHeartbeat(line.substr(0, n), out))
            << "prefix length " << n;
    ASSERT_TRUE(obs::parseHeartbeat(line, out));
    EXPECT_EQ(out.instsDone, hb.instsDone);

    // A cut INSIDE the final number ("... 1234 5" for "... 1234 56")
    // is a syntactically complete line the parser alone cannot
    // flag; the newline framing catches it instead — a torn write
    // never gains its terminator, so the drain keeps it buffered and
    // no heartbeat is ever synthesized from it.
    for (size_t n = last_field + 1; n < line.size(); ++n) {
        LineDrain drain;
        drain.feed(line.substr(0, n)); // torn: no trailing newline
        EXPECT_TRUE(drain.beats.empty()) << "cut at " << n;
        EXPECT_TRUE(drain.passthrough.empty()) << "cut at " << n;
        EXPECT_EQ(drain.buf, line.substr(0, n));
    }
}

TEST(Heartbeat, InterleavedWritesAreRejectedNotMisparsed)
{
    obs::Heartbeat hb;
    hb.shard = 1;
    hb.jobsDone = 2;
    hb.jobsTotal = 3;
    hb.lastJob = 4;
    hb.instsDone = 5;
    hb.elapsedMs = 6;
    hb.lastJobWallMs = 7;
    std::string line = obs::serializeHeartbeat(hb);

    obs::Heartbeat out;
    // Two heartbeats torn onto one line (missing the newline between
    // two unsynchronized writers).
    EXPECT_FALSE(obs::parseHeartbeat(line + " " + line, out));
    EXPECT_FALSE(obs::parseHeartbeat(line + line, out));
    // Diagnostic text glued to a heartbeat on either side.
    EXPECT_FALSE(obs::parseHeartbeat("error: boom " + line, out));
    EXPECT_FALSE(obs::parseHeartbeat(line + " error: boom", out));
}
