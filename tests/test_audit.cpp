/**
 * @file
 * Tests of the determinism audit plane (src/obs/audit.hh,
 * src/obs_audit/bisect.hh): the auditMix chain algebra, the KILOAUD
 * container's round-trip and its rejection of every malformation,
 * firstDivergence semantics, the Session-side digest producer
 * (byte-identical streams across runs and processes of the same
 * configuration, zero perturbation when the plane is off, chains
 * that survive checkpoint/restore), and kilodiff's bisection
 * narrowing a seeded single-bit divergence to its exact cycle.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "src/obs/audit.hh"
#include "src/obs_audit/bisect.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"
#include "src/stats/json.hh"

using namespace kilo;

namespace
{

std::string
audPath(const std::string &tag)
{
    return ::testing::TempDir() + "kilo_aud_" + tag + ".kaud";
}

/** A small synthetic stream with a valid rolling chain. */
obs::AuditStream
syntheticStream(size_t records, uint64_t interval = 1000)
{
    obs::AuditStream s;
    s.intervalInsts = interval;
    uint64_t rolling = obs::AuditBasis;
    for (size_t i = 0; i < records; ++i) {
        obs::AuditRecord r;
        r.insts = interval * (i + 1);
        r.cycle = 3 * r.insts + 17;
        r.state = 0x9e3779b97f4a7c15ull * (i + 1);
        rolling = obs::auditMix(rolling, r.insts, r.cycle, r.state);
        r.rolling = rolling;
        s.records.push_back(r);
    }
    return s;
}

sim::RunConfig
auditedRun(uint64_t interval = 1000)
{
    sim::RunConfig rc;
    rc.warmupInsts = 1000;
    rc.measureInsts = 5000;
    rc.auditIntervalInsts = interval;
    return rc;
}

/** Flip one byte of the file at @p off (from the end when < 0). */
void
flipByte(const std::string &path, long off)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    long size = long(f.tellg());
    long at = off >= 0 ? off : size + off;
    ASSERT_LT(at, size);
    f.seekg(at);
    char c = 0;
    f.read(&c, 1);
    c ^= 0x01;
    f.seekp(at);
    f.write(&c, 1);
}

} // anonymous namespace

// ------------------------------------------------- chain algebra

TEST(AuditMix, EveryFieldAndTheirOrderMatter)
{
    uint64_t base = obs::auditMix(obs::AuditBasis, 1, 2, 3);
    EXPECT_NE(base, obs::auditMix(obs::AuditBasis, 9, 2, 3));
    EXPECT_NE(base, obs::auditMix(obs::AuditBasis, 1, 9, 3));
    EXPECT_NE(base, obs::auditMix(obs::AuditBasis, 1, 2, 9));
    // XOR-multiply folding is position-sensitive, so swapped fields
    // cannot cancel into the same chain value.
    EXPECT_NE(base, obs::auditMix(obs::AuditBasis, 2, 1, 3));
    EXPECT_NE(base, obs::auditMix(obs::AuditBasis, 3, 2, 1));
}

TEST(AuditMix, ChainDependsOnHistory)
{
    // The same record folded onto different prefixes differs: a
    // stream cannot be spliced from two others without the chain
    // breaking at the seam.
    uint64_t a = obs::auditMix(obs::AuditBasis, 1, 2, 3);
    uint64_t b = obs::auditMix(obs::AuditBasis, 4, 5, 6);
    EXPECT_NE(obs::auditMix(a, 7, 8, 9), obs::auditMix(b, 7, 8, 9));
}

// --------------------------------------------- KILOAUD container

TEST(AuditFile, RoundTripsRecordsAndCadence)
{
    obs::AuditStream s = syntheticStream(5, 2500);
    std::string path = audPath("roundtrip");
    obs::writeAuditFile(path, s);

    obs::AuditStream back = obs::readAuditFile(path);
    EXPECT_EQ(back.intervalInsts, 2500u);
    ASSERT_EQ(back.records.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(back.records[i].insts, s.records[i].insts);
        EXPECT_EQ(back.records[i].cycle, s.records[i].cycle);
        EXPECT_EQ(back.records[i].state, s.records[i].state);
        EXPECT_EQ(back.records[i].rolling, s.records[i].rolling);
    }
    EXPECT_EQ(back.finalRolling(), s.finalRolling());
    std::remove(path.c_str());
}

TEST(AuditFile, EmptyStreamRoundTrips)
{
    obs::AuditStream s;
    s.intervalInsts = 100;
    std::string path = audPath("empty");
    obs::writeAuditFile(path, s);
    obs::AuditStream back = obs::readAuditFile(path);
    EXPECT_EQ(back.records.size(), 0u);
    EXPECT_EQ(back.finalRolling(), obs::AuditBasis);
    std::remove(path.c_str());
}

TEST(AuditFile, RejectsEveryMalformation)
{
    obs::AuditStream s = syntheticStream(4);
    std::string path = audPath("malformed");

    auto rewrite = [&] { obs::writeAuditFile(path, s); };

    rewrite(); // bad magic
    flipByte(path, 0);
    EXPECT_THROW(obs::readAuditFile(path), obs::AuditError);

    rewrite(); // bad version
    flipByte(path, 8);
    EXPECT_THROW(obs::readAuditFile(path), obs::AuditError);

    rewrite(); // header field vs header checksum
    flipByte(path, 16);
    EXPECT_THROW(obs::readAuditFile(path), obs::AuditError);

    rewrite(); // corrupt record payload breaks the rolling chain
    flipByte(path, 40 + 32);
    EXPECT_THROW(obs::readAuditFile(path), obs::AuditError);

    rewrite(); // corrupt trailer disagrees with the chain
    flipByte(path, -1);
    EXPECT_THROW(obs::readAuditFile(path), obs::AuditError);

    rewrite(); // truncated mid-record
    {
        std::ifstream in(path, std::ios::binary);
        std::vector<char> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        bytes.resize(bytes.size() - 20);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), long(bytes.size()));
    }
    EXPECT_THROW(obs::readAuditFile(path), obs::AuditError);

    EXPECT_THROW(obs::readAuditFile(audPath("missing")),
                 obs::AuditError);
    std::remove(path.c_str());
}

// ------------------------------------------------ firstDivergence

TEST(AuditDivergence, IdenticalStreamsAgree)
{
    obs::AuditStream s = syntheticStream(6);
    EXPECT_EQ(obs::firstDivergence(s, s), -1);
}

TEST(AuditDivergence, ReportsTheFirstDifferingRecord)
{
    obs::AuditStream a = syntheticStream(6);
    obs::AuditStream b = a;
    b.records[3].state ^= 1; // single-bit state difference
    EXPECT_EQ(obs::firstDivergence(a, b), 3);
    // Any field counts, including a cycle-only drift.
    obs::AuditStream c = a;
    c.records[1].cycle += 1;
    EXPECT_EQ(obs::firstDivergence(a, c), 1);
}

TEST(AuditDivergence, ShorterStreamDivergesAtItsLength)
{
    obs::AuditStream a = syntheticStream(6);
    obs::AuditStream b = a;
    b.records.resize(4);
    EXPECT_EQ(obs::firstDivergence(a, b), 4);
    EXPECT_EQ(obs::firstDivergence(b, a), 4);
}

TEST(AuditDivergence, MismatchedCadencesAreNotComparable)
{
    obs::AuditStream a = syntheticStream(3, 1000);
    obs::AuditStream b = syntheticStream(3, 2000);
    EXPECT_THROW(obs::firstDivergence(a, b), obs::AuditError);
}

// ------------------------------------------- the digest producer

TEST(AuditSession, StreamsAreBitIdenticalAcrossRuns)
{
    for (const char *name : {"r10-64", "kilo", "dkip"}) {
        auto machine = sim::MachineConfig::byName(name);
        sim::RunConfig rc = auditedRun();

        sim::Session a(machine, "mcf", mem::MemConfig::mem400(), rc);
        a.run();
        sim::Session b(machine, "mcf", mem::MemConfig::mem400(), rc);
        b.run();

        ASSERT_EQ(a.auditRecords().size(), 5u) << name;
        ASSERT_EQ(a.auditRecords().size(), b.auditRecords().size());
        for (size_t i = 0; i < a.auditRecords().size(); ++i) {
            const obs::AuditRecord &ra = a.auditRecords()[i];
            const obs::AuditRecord &rb = b.auditRecords()[i];
            EXPECT_EQ(ra.insts, rb.insts) << name << " record " << i;
            EXPECT_EQ(ra.cycle, rb.cycle) << name << " record " << i;
            EXPECT_EQ(ra.state, rb.state) << name << " record " << i;
            EXPECT_EQ(ra.rolling, rb.rolling);
        }
        EXPECT_EQ(a.auditRolling(), b.auditRolling()) << name;
        EXPECT_NE(a.auditRolling(), obs::AuditBasis) << name;
    }
}

TEST(AuditSession, RecordsChainCorrectlyAndLandOnBoundaries)
{
    sim::RunConfig rc = auditedRun(1500);
    sim::Session s(sim::MachineConfig::dkip2048(), "swim",
                   mem::MemConfig::mem400(), rc);
    s.run();
    sim::RunResult res = s.finish();

    ASSERT_FALSE(res.audit.empty());
    uint64_t width = 8; // generous commit-width slack
    uint64_t rolling = obs::AuditBasis;
    uint64_t boundary = 0;
    for (const obs::AuditRecord &r : res.audit) {
        // Each record lands at the first commit point at-or-past its
        // cadence boundary (a wide commit may overshoot by a few
        // instructions — deterministically, since the advance loop
        // stops at every audit boundary).
        boundary += 1500;
        EXPECT_GE(r.insts, boundary);
        EXPECT_LT(r.insts, boundary + width);
        rolling = obs::auditMix(rolling, r.insts, r.cycle, r.state);
        EXPECT_EQ(r.rolling, rolling);
    }
    EXPECT_EQ(res.auditRolling, rolling);
}

TEST(AuditSession, OffByDefaultAndZeroPerturbation)
{
    auto machine = sim::MachineConfig::kilo1024();
    sim::RunConfig off;
    off.warmupInsts = 1000;
    off.measureInsts = 5000;

    sim::Session plain(machine, "mcf", mem::MemConfig::mem400(),
                       off);
    plain.run();
    sim::RunResult base = plain.finish();
    EXPECT_TRUE(base.audit.empty());
    EXPECT_EQ(base.auditRolling, obs::AuditBasis);

    // Auditing at a tight cadence changes nothing about the run
    // itself: the whole JSONL row is bit-identical.
    sim::RunConfig on = off;
    on.auditIntervalInsts = 500;
    sim::Session audited(machine, "mcf", mem::MemConfig::mem400(),
                         on);
    audited.run();
    sim::RunResult with = audited.finish();
    EXPECT_EQ(with.audit.size(), 10u);
    EXPECT_EQ(sim::runResultJson(base), sim::runResultJson(with));
}

TEST(AuditSession, StateDigestIsStableUntilTheStateChanges)
{
    sim::RunConfig rc = auditedRun();
    sim::Session s(sim::MachineConfig::r10_64(), "gzip",
                   mem::MemConfig::mem400(), rc);
    s.warmup();

    uint64_t d0 = s.stateDigest();
    EXPECT_EQ(d0, s.stateDigest()); // const, repeatable
    s.run();
    EXPECT_NE(d0, s.stateDigest()); // advancing changed the state
}

TEST(AuditSession, ChainSurvivesCheckpointRestore)
{
    auto machine = sim::MachineConfig::dkip2048();
    sim::RunConfig rc = auditedRun();

    sim::Session straight(machine, "mcf", mem::MemConfig::mem400(),
                          rc);
    straight.run();

    // Same run, paused by checkpoint/restore into a fresh Session
    // between audit boundaries: the stream must not notice.
    sim::Session src(machine, "mcf", mem::MemConfig::mem400(), rc);
    src.warmup();
    src.runFor(2250); // mid-interval
    ckpt::Checkpoint c = src.checkpoint();

    size_t before = src.auditRecords().size();
    EXPECT_EQ(before, 2u); // boundaries 1000 and 2000 crossed

    sim::Session dst(machine, "mcf", mem::MemConfig::mem400(), rc);
    dst.restore(c);
    dst.run();

    // restore() clears the record vector (like interval samples) but
    // the chain state travels in the image: the resumed records are
    // exactly the straight run's tail, rolling digests included —
    // which is what makes the final rolling digest comparable across
    // a checkpointed fleet.
    ASSERT_EQ(straight.auditRecords().size(),
              before + dst.auditRecords().size());
    for (size_t i = 0; i < dst.auditRecords().size(); ++i) {
        const obs::AuditRecord &want =
            straight.auditRecords()[before + i];
        const obs::AuditRecord &got = dst.auditRecords()[i];
        EXPECT_EQ(want.insts, got.insts) << "record " << i;
        EXPECT_EQ(want.cycle, got.cycle) << "record " << i;
        EXPECT_EQ(want.state, got.state) << "record " << i;
        EXPECT_EQ(want.rolling, got.rolling) << "record " << i;
    }
    EXPECT_EQ(straight.auditRolling(), dst.auditRolling());
}

// --------------------------------------------------- bisection

TEST(AuditBisect, IdenticalSpecsDoNotDiverge)
{
    obs_audit::RunSpec spec;
    spec.machine = "r10-64";
    spec.workload = "gzip";
    spec.mem = "mem-400";
    spec.rc = auditedRun();

    obs::AuditStream sa = obs_audit::recordRun(spec);
    obs::AuditStream sb = obs_audit::recordRun(spec);
    EXPECT_EQ(obs::firstDivergence(sa, sb), -1);

    obs_audit::BisectResult r = obs_audit::bisect(spec, spec, sa, sb);
    EXPECT_FALSE(r.diverged);
    EXPECT_EQ(r.record, -1);
}

TEST(AuditBisect, LocalizesASeededFlipToItsExactCycle)
{
    obs_audit::RunSpec a;
    a.machine = "dkip";
    a.workload = "mcf";
    a.mem = "mem-400";
    a.rc = auditedRun();

    // Run B is run A with one global-history bit flipped at a known
    // cycle safely inside the measured region.
    obs_audit::RunSpec b = a;
    obs::AuditStream sa = obs_audit::recordRun(a);
    ASSERT_GE(sa.records.size(), 3u);
    uint64_t flip = (sa.records[1].cycle + sa.records[2].cycle) / 2;
    b.flipCycle = flip;
    b.flipMask = 1;

    obs::AuditStream sb = obs_audit::recordRun(b);
    long k = obs::firstDivergence(sa, sb);
    ASSERT_GE(k, 2) << "flip seeded after record 1 boundary";

    std::string prefix = ::testing::TempDir() + "kilo_aud_bisect";
    obs_audit::BisectResult r =
        obs_audit::bisect(a, b, sa, sb, prefix, 100);
    EXPECT_TRUE(r.diverged);
    EXPECT_EQ(r.record, k);
    // The first divergent cycle is exactly the one where the flip
    // hook fired — the state at its boundary still agreed.
    EXPECT_EQ(r.firstDivergentCycle, flip);
    EXPECT_NE(r.digestA, r.digestB);

    // The eyeball dumps exist and are non-trivial.
    for (const std::string &p :
         {r.konataA, r.konataB, r.chromeA, r.chromeB}) {
        ASSERT_FALSE(p.empty());
        std::ifstream f(p);
        ASSERT_TRUE(f.good()) << p;
        std::string first;
        std::getline(f, first);
        EXPECT_FALSE(first.empty()) << p;
        std::remove(p.c_str());
    }
}

TEST(AuditBisect, RejectsStreamsThatAreNotFromTheSpecs)
{
    obs_audit::RunSpec spec;
    spec.machine = "r10-64";
    spec.workload = "gzip";
    spec.mem = "mem-400";
    spec.rc = auditedRun();

    obs::AuditStream sa = obs_audit::recordRun(spec);
    obs::AuditStream sb = sa;
    // Forge a divergence the live replay will contradict.
    sb.records[2].state ^= 1;
    sb.records[2].rolling ^= 1;
    EXPECT_THROW(obs_audit::bisect(spec, spec, sa, sb),
                 obs::AuditError);
}
