/**
 * @file
 * Tests of the D-KIP structures (LLRF, LLIB, checkpoint stack) and
 * end-to-end behaviour of the decoupled core: execution-locality
 * classification, LLIB occupancy, recovery and the small-structures
 * property the paper leads with.
 */

#include <gtest/gtest.h>

#include "src/ckpt/serial.hh"
#include "src/core/inst_arena.hh"
#include "src/dkip/checkpoint_stack.hh"
#include "src/dkip/dkip_core.hh"
#include "src/dkip/llib.hh"
#include "src/dkip/llrf.hh"
#include "src/sim/sweep.hh"
#include "test_helpers.hh"

using namespace kilo;
using namespace kilo::dkip;

namespace
{

/** Per-test instruction arena plus a builder. */
struct Arena
{
    core::InstArena arena;

    core::InstRef
    inst(uint64_t seq, isa::MicroOp op = isa::makeAlu(1, 2, 3))
    {
        core::InstRef ref = arena.alloc();
        core::DynInst &i = arena.get(ref);
        i.op = op;
        i.seq = seq;
        return ref;
    }

    core::DynInst &operator[](core::InstRef ref)
    {
        return arena.get(ref);
    }

    core::DynInstCold &cold(core::InstRef ref)
    {
        return arena.cold(ref);
    }
};

} // anonymous namespace

// ------------------------------------------------------------ Llrf

TEST(Llrf, GeometryMatchesPaper)
{
    Llrf rf; // defaults: 8 banks x 256
    EXPECT_EQ(rf.numBanks(), 8);
    EXPECT_EQ(rf.numSlots(), 2048u);
}

TEST(Llrf, AllocRoundRobinsBanks)
{
    Arena ar;
    Llrf rf(4, 2);
    auto a = ar.inst(1);
    auto b = ar.inst(2);
    EXPECT_TRUE(rf.tryAlloc(ar[a]));
    EXPECT_TRUE(rf.tryAlloc(ar[b]));
    EXPECT_NE(ar[a].llrfBank, ar[b].llrfBank);
}

TEST(Llrf, WriteMarksBankForCycle)
{
    Arena ar;
    Llrf rf(4, 2);
    auto a = ar.inst(1);
    rf.tryAlloc(ar[a]);
    EXPECT_TRUE(rf.bankWrittenThisCycle(ar[a].llrfBank));
    rf.beginCycle();
    EXPECT_FALSE(rf.bankWrittenThisCycle(ar[a].llrfBank));
}

TEST(Llrf, FillsUpAndReleases)
{
    Arena ar;
    Llrf rf(2, 1);
    auto a = ar.inst(1);
    auto b = ar.inst(2);
    auto c = ar.inst(3);
    EXPECT_TRUE(rf.tryAlloc(ar[a]));
    EXPECT_TRUE(rf.tryAlloc(ar[b]));
    EXPECT_TRUE(rf.fullyAllocated());
    EXPECT_FALSE(rf.tryAlloc(ar[c]));
    rf.release(ar[a]);
    EXPECT_EQ(rf.numAllocated(), 1u);
    EXPECT_TRUE(rf.tryAlloc(ar[c]));
}

TEST(Llrf, ReleaseWithoutAllocIsNoop)
{
    Arena ar;
    Llrf rf(2, 1);
    auto a = ar.inst(1); // llrfBank == -1
    rf.release(ar[a]);
    EXPECT_EQ(rf.numAllocated(), 0u);
}

// ------------------------------------------------------------ Llib

TEST(Llib, FifoOrderPreserved)
{
    Arena ar;
    Llib q("test", 4, ar.arena);
    auto a = ar.inst(1);
    auto b = ar.inst(2);
    q.push(a);
    q.push(b);
    EXPECT_EQ(q.front(), a);
    EXPECT_EQ(q.popFront(), a);
    EXPECT_EQ(q.popFront(), b);
}

TEST(Llib, TracksMaxOccupancy)
{
    Arena ar;
    Llib q("test", 8, ar.arena);
    q.push(ar.inst(1));
    q.push(ar.inst(2));
    q.popFront();
    q.push(ar.inst(3));
    EXPECT_EQ(q.maxOccupancy(), 2u);
}

TEST(LlibDeath, OutOfOrderPushPanics)
{
    Arena ar;
    Llib q("test", 4, ar.arena);
    q.push(ar.inst(5));
    EXPECT_DEATH(q.push(ar.inst(3)), "order");
}

TEST(Llib, CheckpointRoundTripKeepsOrderAndCapacity)
{
    Arena ar;
    Llib q("test", 3, ar.arena);
    auto a = ar.inst(1), b = ar.inst(2), c = ar.inst(3);
    q.push(a);
    q.push(b);
    q.push(c);
    EXPECT_TRUE(q.full());
    ckpt::Sink s;
    q.save(s);

    Llib r("test", 3, ar.arena);
    ckpt::Source src(s.data());
    r.load(src);
    EXPECT_TRUE(r.full());
    EXPECT_EQ(r.popFront(), a);
    EXPECT_EQ(r.popFront(), b);
    EXPECT_EQ(r.popFront(), c);
}

TEST(Llib, RestoreBeyondCapacityThrows)
{
    // The checkpoint is input from outside the program: a blob taken
    // from a larger LLIB must not restore into a smaller one.
    Arena ar;
    Llib big("test", 4, ar.arena);
    big.push(ar.inst(1));
    big.push(ar.inst(2));
    big.push(ar.inst(3));
    ckpt::Sink s;
    big.save(s);

    Llib small("test", 2, ar.arena);
    ckpt::Source src(s.data());
    EXPECT_THROW(small.load(src), ckpt::CheckpointError);
}

TEST(Llib, HeadBlockedOnAddressProcessorLoad)
{
    Arena ar;
    Llib q("test", 4, ar.arena);
    auto ld = ar.inst(1, isa::makeLoad(5, 2, 0x100));
    ar[ld].longLatency = true; // off-chip load in the addr proc
    auto dep = ar.inst(2, isa::makeAlu(6, 5, isa::NoReg));
    ar.cold(dep).producers[0] = ld;
    q.push(dep);
    EXPECT_TRUE(q.headBlocked());
    ar[ld].completed = true;
    EXPECT_FALSE(q.headBlocked());
}

TEST(Llib, HeadNotBlockedOnNonLoadProducer)
{
    Arena ar;
    Llib q("test", 4, ar.arena);
    auto alu = ar.inst(1, isa::makeAlu(5, 2, isa::NoReg));
    ar[alu].execInMp = true; // older low-locality ALU ahead
    auto dep = ar.inst(2, isa::makeAlu(6, 5, isa::NoReg));
    ar.cold(dep).producers[0] = alu;
    q.push(dep);
    EXPECT_FALSE(q.headBlocked());
}

TEST(Llib, SquashRemovesYoungest)
{
    Arena ar;
    Llib q("test", 4, ar.arena);
    auto a = ar.inst(1);
    auto b = ar.inst(2);
    q.push(a);
    q.push(b);
    q.notifySquashed(b);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front(), a);
}

// ------------------------------------------------ CheckpointStack

TEST(CheckpointStack, PushFindResolve)
{
    CheckpointStack cs(4);
    BitVector bv(8);
    bv.set(3);
    cs.push(10, bv);
    cs.push(20, bv);
    ASSERT_NE(cs.findFor(10), nullptr);
    EXPECT_TRUE(cs.findFor(10)->llbv.test(3));
    EXPECT_EQ(cs.findFor(15), nullptr);
    cs.resolve(10);
    EXPECT_EQ(cs.size(), 1u);
}

TEST(CheckpointStack, OutOfOrderResolveReleasesInOrder)
{
    CheckpointStack cs(4);
    BitVector bv(8);
    cs.push(10, bv);
    cs.push(20, bv);
    cs.resolve(20); // younger resolves first: stays until 10 does
    EXPECT_EQ(cs.size(), 2u);
    cs.resolve(10);
    EXPECT_EQ(cs.size(), 0u);
}

TEST(CheckpointStack, SquashDropsYoungerAndSelf)
{
    CheckpointStack cs(4);
    BitVector bv(8);
    cs.push(10, bv);
    cs.push(20, bv);
    cs.push(30, bv);
    cs.squashFrom(20);
    EXPECT_EQ(cs.size(), 1u);
    EXPECT_NE(cs.findFor(10), nullptr);
}

TEST(CheckpointStack, CapacityEnforced)
{
    CheckpointStack cs(2);
    BitVector bv(4);
    cs.push(1, bv);
    cs.push(2, bv);
    EXPECT_TRUE(cs.full());
}

// --------------------------------------------------- DkipCore e2e

namespace
{

sim::RunResult
runDkip(const std::string &bench,
        const mem::MemConfig &mcfg = mem::MemConfig::mem400())
{
    return sim::Simulator::run(sim::MachineConfig::dkip2048(), bench,
                               mcfg, sim::RunConfig::sweep());
}

} // anonymous namespace

TEST(DkipCore, ClassifiesStreamingFpAsLowLocality)
{
    auto res = runDkip("swim");
    // The paper: CP executes ~2/3-3/4 of committed instructions on
    // SpecFP; the rest flow through the LLIBs to the MPs.
    EXPECT_GT(res.stats.mpFraction(), 0.15);
    EXPECT_LT(res.stats.mpFraction(), 0.55);
    EXPECT_GT(res.stats.llibInsertedFp, 0u);
}

TEST(DkipCore, CacheResidentCodeStaysInCp)
{
    auto res = runDkip("sixtrack");
    EXPECT_LT(res.stats.mpFraction(), 0.02);
}

TEST(DkipCore, PerfectMemoryNeverUsesMp)
{
    auto res = runDkip("swim", mem::MemConfig::l1Only());
    EXPECT_EQ(res.stats.mpExecuted, 0u);
    EXPECT_EQ(res.stats.llibInsertedFp, 0u);
}

TEST(DkipCore, BeatsSmallBaselineOnStreamingFp)
{
    auto base = sim::Simulator::run(sim::MachineConfig::r10_64(),
                                    "swim", mem::MemConfig::mem400(),
                                    sim::RunConfig::sweep());
    auto dkip = runDkip("swim");
    EXPECT_GT(dkip.ipc, 2.0 * base.ipc);
}

TEST(DkipCore, LlibOccupancyWithinCapacity)
{
    auto res = runDkip("swim");
    EXPECT_LE(res.stats.maxLlibInstrsFp, 2048u);
    EXPECT_LE(res.stats.maxLlibRegsFp, 2048u);
    EXPECT_GT(res.stats.maxLlibInstrsFp, 10u);
}

TEST(DkipCore, RegistersFewerThanInstructions)
{
    // Figures 13/14: the READY-operand register high-water mark sits
    // below the instruction high-water mark.
    auto res = runDkip("swim");
    EXPECT_LE(res.stats.maxLlibRegsFp, res.stats.maxLlibInstrsFp);
}

TEST(DkipCore, IntAndFpLlibsSeparate)
{
    auto res = runDkip("swim");
    // FP benchmark: the overwhelming share of inserts are FP-side.
    EXPECT_GT(res.stats.llibInsertedFp, res.stats.llibInsertedInt);
}

TEST(DkipCore, NoStructureLargerThan40IssuesOoO)
{
    // The headline claim: default D-KIP has no out-of-order structure
    // larger than 40 entries, yet reaches multi-GHz-window IPC.
    auto cfg = sim::MachineConfig::dkip2048();
    EXPECT_LE(cfg.dkip.cp.intIqSize, 40u);
    EXPECT_LE(cfg.dkip.cp.fpIqSize, 40u);
    EXPECT_EQ(cfg.dkip.mpPolicy, core::SchedPolicy::InOrder);
    EXPECT_EQ(cfg.dkip.cp.robSize, 64u); // aging FIFO, not a CAM
}

TEST(DkipCore, AnalyzeStallsAreRare)
{
    auto res = runDkip("swim");
    // Paper reports ~0.7% IPC loss from Analyze stalls.
    EXPECT_LT(double(res.stats.analyzeStallCycles),
              0.25 * double(res.stats.cycles));
}

TEST(DkipCore, ChasePathUsesCheckpoints)
{
    auto res = runDkip("mcf");
    EXPECT_GT(res.stats.checkpointsTaken, 0u);
}

TEST(DkipCore, SurvivesEveryIntBenchmark)
{
    for (const auto &name : sim::intSuite()) {
        auto res = sim::Simulator::run(
            sim::MachineConfig::dkip2048(), name,
            mem::MemConfig::mem400(), sim::RunConfig::sweep());
        EXPECT_GT(res.ipc, 0.01) << name;
    }
}

TEST(DkipCore, Deterministic)
{
    auto a = runDkip("equake");
    auto b = runDkip("equake");
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.llibInsertedFp, b.stats.llibInsertedFp);
}

TEST(DkipCore, InOrderCpDegradesPerformance)
{
    // Figure 10: OOO vs INO Cache Processor is worth ~30%.
    auto ooo = sim::Simulator::run(
        sim::MachineConfig::dkipSched(core::SchedPolicy::OutOfOrder,
                                      40, core::SchedPolicy::InOrder,
                                      20),
        "swim", mem::MemConfig::mem400(), sim::RunConfig::sweep());
    auto ino = sim::Simulator::run(
        sim::MachineConfig::dkipSched(core::SchedPolicy::InOrder, 40,
                                      core::SchedPolicy::InOrder, 20),
        "swim", mem::MemConfig::mem400(), sim::RunConfig::sweep());
    EXPECT_GT(ooo.ipc, ino.ipc);
}

TEST(DkipCore, CacheSizeInsensitivityOnFp)
{
    // Figure 12: the D-KIP's FP IPC moves little across a 64x L2
    // sweep compared with a conventional core.
    auto small_l2 = sim::Simulator::run(
        sim::MachineConfig::dkip2048(), "swim",
        mem::MemConfig::withL2Size(64 * 1024),
        sim::RunConfig::sweep());
    auto big_l2 = sim::Simulator::run(
        sim::MachineConfig::dkip2048(), "swim",
        mem::MemConfig::withL2Size(4 * 1024 * 1024),
        sim::RunConfig::sweep());
    EXPECT_LT(big_l2.ipc / small_l2.ipc, 1.5);
}
