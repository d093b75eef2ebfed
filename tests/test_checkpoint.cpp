/**
 * @file
 * Tests of Session checkpoint/restore: a run checkpointed at cycle C
 * and restored — into the same Session or a freshly constructed one —
 * must produce the same JSONL row as a run that never paused, across
 * all three machine models. Also covers the edge cases that make
 * checkpoints trustworthy: snapshots taken while MSHR fills are in
 * flight and while fetch is redirect-blocked, double restores, and
 * the KILOCKPT container rejecting every form of file malformation
 * with ckpt::CheckpointError.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "src/ckpt/serial.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"

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

/** JSONL row of a run that never pauses. */
std::string
uninterruptedRow(const MachineConfig &machine,
                 const std::string &workload, const RunConfig &rc)
{
    Session s(machine, workload, mem::MemConfig::mem400(), rc);
    s.run();
    return runResultJson(s.finish());
}

std::string
ckptPath(const std::string &tag)
{
    return ::testing::TempDir() + "kilo_ckpt_" + tag + ".kckpt";
}

} // anonymous namespace

/** The acceptance pin: checkpoint-at-C-then-restore is exact. */
TEST(Checkpoint, RestoreBitIdenticalAllMachines)
{
    for (const auto &machine : allMachines()) {
        RunConfig rc = shortRun();
        std::string golden = uninterruptedRow(machine, "mcf", rc);

        Session src(machine, "mcf", mem::MemConfig::mem400(), rc);
        src.warmup();
        src.runFor(7000);
        ckpt::Checkpoint snap = src.checkpoint();

        // Taking the checkpoint must not perturb the source run.
        src.run();
        EXPECT_EQ(runResultJson(src.finish()), golden)
            << machine.name << " (source run after checkpoint)";

        // Restore into a freshly constructed Session and finish.
        Session dst(machine, "mcf", mem::MemConfig::mem400(), rc);
        dst.restore(snap);
        dst.run();
        EXPECT_EQ(runResultJson(dst.finish()), golden)
            << machine.name << " (fresh-session restore)";
    }
}

/** Checkpoints taken at many scattered boundaries — including ones
 *  landing inside redirect stalls and mid-drain of the decoupled
 *  structures — all restore to the same final row. */
TEST(Checkpoint, ScatteredBoundariesAllRestoreExact)
{
    for (const auto &machine : allMachines()) {
        RunConfig rc = shortRun();
        std::string golden = uninterruptedRow(machine, "mcf", rc);

        Session src(machine, "mcf", mem::MemConfig::mem400(), rc);
        src.warmup();
        std::vector<ckpt::Checkpoint> snaps;
        while (!src.finished() && snaps.size() < 6) {
            // Odd quantum on purpose: boundaries land wherever the
            // pipeline happens to be — squash recovery, full
            // windows, fetch stalls.
            src.step(931);
            snaps.push_back(src.checkpoint());
        }
        ASSERT_GE(snaps.size(), 3u) << machine.name;

        for (size_t i = 0; i < snaps.size(); ++i) {
            Session dst(machine, "mcf", mem::MemConfig::mem400(), rc);
            dst.restore(snaps[i]);
            dst.run();
            EXPECT_EQ(runResultJson(dst.finish()), golden)
                << machine.name << " checkpoint " << i;
        }
    }
}

/** A checkpoint taken while off-chip fills are in flight restores
 *  them: the merged accesses and fill completions replay exactly. */
TEST(Checkpoint, InFlightMshrFillsSurvive)
{
    RunConfig rc = shortRun();
    auto machine = MachineConfig::dkip2048();
    std::string golden = uninterruptedRow(machine, "mcf", rc);

    Session src(machine, "mcf", mem::MemConfig::mem400(), rc);
    src.warmup();
    // Step until the MSHR file holds live fills (mcf misses keep it
    // busy; the loop terminates almost immediately).
    bool found = false;
    while (!src.finished()) {
        src.step(50);
        if (src.core().memory().mshrOccupancy() > 0) {
            found = true;
            break;
        }
    }
    ASSERT_TRUE(found) << "mcf/MEM-400 never had a live fill";

    ckpt::Checkpoint snap = src.checkpoint();
    Session dst(machine, "mcf", mem::MemConfig::mem400(), rc);
    dst.restore(snap);
    EXPECT_GT(dst.core().memory().mshrOccupancy(), 0u);
    dst.run();
    EXPECT_EQ(runResultJson(dst.finish()), golden);
}

/** Restoring the same checkpoint twice (even after advancing) yields
 *  the same row both times. */
TEST(Checkpoint, DoubleRestoreIsIdempotent)
{
    RunConfig rc = shortRun();
    auto machine = MachineConfig::kilo1024();
    std::string golden = uninterruptedRow(machine, "swim", rc);

    Session src(machine, "swim", mem::MemConfig::mem400(), rc);
    src.warmup();
    src.runFor(4000);
    ckpt::Checkpoint snap = src.checkpoint();

    Session dst(machine, "swim", mem::MemConfig::mem400(), rc);
    dst.restore(snap);
    dst.runFor(3000); // advance, then rewind via the same snapshot
    dst.restore(snap);
    dst.run();
    EXPECT_EQ(runResultJson(dst.finish()), golden);
}

/** Identity validation: a checkpoint only restores into a session of
 *  the same machine and workload. */
TEST(Checkpoint, MismatchedIdentityRejected)
{
    RunConfig rc = shortRun();
    Session src(MachineConfig::dkip2048(), "mcf",
                mem::MemConfig::mem400(), rc);
    src.warmup();
    ckpt::Checkpoint snap = src.checkpoint();

    Session other_machine(MachineConfig::r10_64(), "mcf",
                          mem::MemConfig::mem400(), rc);
    EXPECT_THROW(other_machine.restore(snap), ckpt::CheckpointError);

    Session other_workload(MachineConfig::dkip2048(), "swim",
                           mem::MemConfig::mem400(), rc);
    EXPECT_THROW(other_workload.restore(snap), ckpt::CheckpointError);
}

/** A checkpoint restored into a different memory geometry (MSHR
 *  count, cache levels or sizes) throws instead of aborting. The
 *  image does not record the memory latencies, so a latency-only
 *  mismatch is not detected here. */
TEST(Checkpoint, MismatchedMemoryConfigRejected)
{
    RunConfig rc = shortRun();
    Session src(MachineConfig::r10_64(), "mcf",
                mem::MemConfig::mem400(), rc);
    src.warmup();
    src.step(5000);
    ckpt::Checkpoint snap = src.checkpoint();

    mem::MemConfig few_mshrs = mem::MemConfig::mem400();
    few_mshrs.numMshrs = 64;
    const mem::MemConfig others[] = {
        few_mshrs,
        mem::MemConfig::l1Only(),
        mem::MemConfig::l2Perfect11(),
        mem::MemConfig::withL2Size(256 * 1024),
    };
    for (const mem::MemConfig &mc : others) {
        Session dst(MachineConfig::r10_64(), "mcf", mc, rc);
        EXPECT_THROW(dst.restore(snap), ckpt::CheckpointError)
            << mc.name << " numMshrs " << mc.numMshrs;
    }

    // The matching configuration still restores.
    Session same(MachineConfig::r10_64(), "mcf",
                 mem::MemConfig::mem400(), rc);
    EXPECT_NO_THROW(same.restore(snap));
}

/** Same for a window too small for the image: a shorter ROB, a
 *  shallower checkpoint stack or a smaller LLIB under the same
 *  machine name throws instead of aborting. */
TEST(Checkpoint, MismatchedWindowConfigRejected)
{
    RunConfig rc = shortRun();
    Session ooo(MachineConfig::r10_64(), "mcf",
                mem::MemConfig::mem400(), rc);
    ooo.warmup();
    ooo.step(5000);
    ckpt::Checkpoint ooo_snap = ooo.checkpoint();
    MachineConfig short_rob = MachineConfig::r10_64();
    short_rob.cp.robSize = 16;
    Session small_rob(short_rob, "mcf", mem::MemConfig::mem400(), rc);
    EXPECT_THROW(small_rob.restore(ooo_snap), ckpt::CheckpointError);

    // The default warm-up leaves two checkpoints in flight here.
    rc = RunConfig();
    Session dkip(MachineConfig::dkip2048(), "mcf",
                 mem::MemConfig::mem400(), rc);
    dkip.warmup();
    dkip.step(3000);
    ckpt::Checkpoint dkip_snap = dkip.checkpoint();
    MachineConfig one_ckpt = MachineConfig::dkip2048();
    one_ckpt.dkip.checkpointCapacity = 1;
    MachineConfig small_llib = MachineConfig::dkip2048();
    small_llib.dkip.llibCapacity = 8;
    for (const MachineConfig &mc : {one_ckpt, small_llib}) {
        Session dst(mc, "mcf", mem::MemConfig::mem400(), rc);
        EXPECT_THROW(dst.restore(dkip_snap), ckpt::CheckpointError)
            << "checkpointCapacity " << mc.dkip.checkpointCapacity
            << " llibCapacity " << mc.dkip.llibCapacity;
    }

    // The matching configuration still restores.
    Session same(MachineConfig::dkip2048(), "mcf",
                 mem::MemConfig::mem400(), rc);
    EXPECT_NO_THROW(same.restore(dkip_snap));
}

/** Trailing garbage after the core state is rejected, not ignored. */
TEST(Checkpoint, TrailingBytesRejected)
{
    RunConfig rc = shortRun();
    Session src(MachineConfig::r10_64(), "mcf",
                mem::MemConfig::mem400(), rc);
    src.warmup();
    ckpt::Checkpoint snap = src.checkpoint();
    snap.bytes.push_back(0x5a);

    Session dst(MachineConfig::r10_64(), "mcf",
                mem::MemConfig::mem400(), rc);
    EXPECT_THROW(dst.restore(snap), ckpt::CheckpointError);
}

/** On-disk KILOCKPT round trip is exact. */
TEST(Checkpoint, FileRoundTripBitIdentical)
{
    RunConfig rc = shortRun();
    auto machine = MachineConfig::dkip2048();
    std::string golden = uninterruptedRow(machine, "mcf", rc);
    std::string path = ckptPath("roundtrip");

    Session src(machine, "mcf", mem::MemConfig::mem400(), rc);
    src.warmup();
    src.runFor(6000);
    src.saveCheckpoint(path);

    Session dst(machine, "mcf", mem::MemConfig::mem400(), rc);
    dst.loadCheckpoint(path);
    dst.run();
    EXPECT_EQ(runResultJson(dst.finish()), golden);
    std::remove(path.c_str());
}

/** Every KILOCKPT malformation raises CheckpointError: wrong magic,
 *  future version, truncation, payload corruption. */
TEST(Checkpoint, MalformedFilesRejected)
{
    RunConfig rc = shortRun();
    Session src(MachineConfig::r10_64(), "mcf",
                mem::MemConfig::mem400(), rc);
    src.warmup();
    std::string path = ckptPath("malformed");
    src.saveCheckpoint(path);

    std::vector<char> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 32u);

    auto write_variant = [&](std::vector<char> v) {
        std::ofstream out(path,
                          std::ios::binary | std::ios::trunc);
        out.write(v.data(), std::streamsize(v.size()));
    };
    auto expect_rejected = [&](const char *what) {
        EXPECT_THROW(ckpt::readCheckpointFile(path),
                     ckpt::CheckpointError)
            << what;
    };

    // Wrong magic.
    {
        std::vector<char> v = bytes;
        v[0] = 'X';
        write_variant(v);
        expect_rejected("bad magic");
    }
    // Future format version (bytes 8..11 hold the u32 version).
    {
        std::vector<char> v = bytes;
        v[8] = char(0x7f);
        write_variant(v);
        expect_rejected("version mismatch");
    }
    // Truncated header and truncated payload.
    {
        std::vector<char> v(bytes.begin(), bytes.begin() + 10);
        write_variant(v);
        expect_rejected("truncated header");
    }
    {
        std::vector<char> v(bytes.begin(), bytes.end() - 7);
        write_variant(v);
        expect_rejected("truncated payload");
    }
    // A flipped payload byte fails the checksum.
    {
        std::vector<char> v = bytes;
        v[v.size() / 2] = char(~v[v.size() / 2]);
        write_variant(v);
        expect_rejected("checksum mismatch");
    }

    std::remove(path.c_str());
}
