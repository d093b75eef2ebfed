/**
 * @file
 * White-box scenarios for the Analyze stage of the two aging-ROB
 * machines — the paper's classification rules of section 3.2 —
 * driven through controlled micro-workloads and observed via the
 * cores' structure accessors, statistics and instruction timelines.
 * Rules both machines share run on DkipCore and KiloCore alike; the
 * Address Processor and LLIB specifics run on DkipCore only.
 */

#include <gtest/gtest.h>

#include <set>

#include "src/ckpt/serial.hh"
#include "src/dkip/dkip_core.hh"
#include "src/kilo_proc/kilo_core.hh"
#include "src/obs/timeline.hh"
#include "src/sim/session.hh"
#include "src/sim/sweep_engine.hh"
#include "src/wload/synthetic.hh"
#include "test_helpers.hh"

using namespace kilo;
using namespace kilo::dkip;

namespace
{

/** The two aging-ROB machines with perfect branch prediction. @{ */
struct DkipMachine
{
    using Core = DkipCore;
    using Params = DkipParams;
    static constexpr const char *name = "Dkip";

    static Params
    params()
    {
        Params p = DkipParams::dkip2048();
        p.cp.predictor = pred::BpKind::Perfect;
        return p;
    }
};

struct KiloMachine
{
    using Core = kilo_proc::KiloCore;
    using Params = kilo_proc::KiloParams;
    static constexpr const char *name = "Kilo";

    static Params
    params()
    {
        Params p = kilo_proc::KiloParams::kilo1024();
        p.cp.predictor = pred::BpKind::Perfect;
        return p;
    }
};
/** @} */

/** Instructions moved to the slow lane's counted structure (the
 *  LLIBs on D-KIP, the SLIQ on KILO). */
uint64_t
slowLaneInserts(const core::CoreStats &st)
{
    return st.llibInsertedInt + st.llibInsertedFp;
}

/** Loop body: one off-chip strided load + one dependent ALU op +
 *  filler. Every load misses (64B stride over a huge region needs a
 *  never-repeating address, so use a synthetic profile). */
wload::WorkloadProfile
missProfile()
{
    wload::WorkloadProfile p;
    p.name = "miss-dep";
    p.streamLoads = 1;
    p.numStreams = 1;
    p.streamBytes = 64 << 20; // far larger than the L2
    p.streamStride = 64;
    p.depComputePerLoad = 2;
    p.indepCompute = 4;
    p.condBranches = 0;
    p.storeEvery = 0;
    p.branchRandFrac = 0.0;
    return p;
}

/**
 * Loop of three ops: a load that always misses (a fresh line each
 * iteration) into r1; a store of r1 to the fixed address A; a load of
 * A into r3. The second load's registers are high-locality (no
 * register sources), but it must wait for the store, whose data is
 * the miss.
 */
class StoreForwardSlice : public wload::Workload
{
  public:
    static constexpr uint64_t BlockedLoadPc = 0x1008;

    isa::MicroOp
    next() override
    {
        constexpr uint64_t A = 0x100;
        switch (pos++ % 3) {
          case 0:
            return isa::makeLoad(1, isa::NoReg,
                                 0x10000000 + 64 * (pos / 3), 0x1000);
          case 1:
            return isa::makeStore(isa::NoReg, 1, A, 0x1004);
          default:
            return isa::makeLoad(3, isa::NoReg, A, BlockedLoadPc);
        }
    }

    const std::string &name() const override { return label; }
    bool isFp() const override { return false; }
    void reset() override { pos = 0; }

  private:
    std::string label = "store-forward-slice";
    uint64_t pos = 0;
};

} // anonymous namespace

// ---------------------------------------------------------------------
// Rules shared by D-KIP and KILO
// ---------------------------------------------------------------------

template <typename M>
class AgingRobAnalyze : public ::testing::Test
{
  protected:
    using Core = typename M::Core;
    using Params = typename M::Params;
};

struct MachineNames
{
    template <typename M>
    static std::string
    GetName(int)
    {
        return M::name;
    }
};

using AgingRobMachines = ::testing::Types<DkipMachine, KiloMachine>;
TYPED_TEST_SUITE(AgingRobAnalyze, AgingRobMachines, MachineNames);

TYPED_TEST(AgingRobAnalyze, LlbvBitsSetWhileMissesInFlight)
{
    auto wl = wload::makeWorkload(missProfile());
    typename TestFixture::Core core(TypeParam::params(), *wl,
                                    mem::MemConfig::mem400());
    core.run(2000);
    // In steady state some registers are marked low-locality.
    // (Observed mid-run; misses are always in flight here.)
    EXPECT_GT(core.lowLocalityBits().popcount(), 0u);
}

TYPED_TEST(AgingRobAnalyze, PerfectMemoryKeepsLlbvClear)
{
    auto wl = wload::makeWorkload(missProfile());
    typename TestFixture::Core core(TypeParam::params(), *wl,
                                    mem::MemConfig::l1Only());
    core.run(5000);
    EXPECT_TRUE(core.lowLocalityBits().none());
    EXPECT_EQ(slowLaneInserts(core.stats()), 0u);
    EXPECT_EQ(core.stats().analyzeStallCycles, 0u);
}

TYPED_TEST(AgingRobAnalyze, ShortRedefinitionClearsLlbv)
{
    // The same registers are redefined by resident loads in between:
    // low-locality marks must not accumulate forever.
    auto prof = missProfile();
    prof.streamLoads = 2; // second stream is tiny and resident
    prof.numStreams = 2;
    prof.streamBytes = 64 << 20;
    auto wl = wload::makeWorkload(prof);
    typename TestFixture::Core core(TypeParam::params(), *wl,
                                    mem::MemConfig::mem400());
    core.run(20000);
    // Fewer than half the registers marked at any sampling point.
    EXPECT_LT(core.lowLocalityBits().popcount(),
              size_t(isa::NumRegs) / 2);
}

TYPED_TEST(AgingRobAnalyze, AgingTimerDelaysClassification)
{
    // With a very long timer the window is ROB-bound and throughput
    // of the slow lane drops on a miss-heavy stream.
    auto wl_fast = wload::makeWorkload(missProfile());
    auto wl_slow = wload::makeWorkload(missProfile());
    typename TestFixture::Params fast = TypeParam::params();
    typename TestFixture::Params slow = TypeParam::params();
    slow.robTimer = 256;
    slow.cp.robSize = 1024;
    typename TestFixture::Core a(fast, *wl_fast,
                                 mem::MemConfig::mem400());
    typename TestFixture::Core b(slow, *wl_slow,
                                 mem::MemConfig::mem400());
    a.run(20000);
    b.run(20000);
    // Classification at 16 cycles lets the window rotate much faster
    // than commit-style draining at 256 cycles.
    EXPECT_GE(a.stats().ipc(), b.stats().ipc() * 0.9);
}

TYPED_TEST(AgingRobAnalyze, BranchInSliceTakesCheckpoint)
{
    auto prof = missProfile();
    prof.condBranches = 1;
    prof.branchOnLoad = true;
    prof.branchOnLoadFrac = 1.0;
    prof.branchRandFrac = 0.0; // perfectly biased, never squashes
    auto wl = wload::makeWorkload(prof);
    typename TestFixture::Core core(TypeParam::params(), *wl,
                                    mem::MemConfig::mem400());
    core.run(10000);
    EXPECT_GT(core.stats().checkpointsTaken, 50u);
}

TYPED_TEST(AgingRobAnalyze, StallsOnShortInFlightWork)
{
    // FP divides take 12 cycles; an instruction reaching the Analyze
    // head mid-divide is short-latency and must stall the stage.
    wload::WorkloadProfile p;
    p.name = "div-heavy";
    p.fp = true;
    p.indepCompute = 2;
    p.fpDivEvery = 1;
    p.condBranches = 0;
    p.storeEvery = 0;
    p.branchRandFrac = 0.0;
    auto wl = wload::makeWorkload(p);
    typename TestFixture::Core core(TypeParam::params(), *wl,
                                    mem::MemConfig::l1Only());
    core.run(10000);
    EXPECT_GT(core.stats().analyzeStallCycles, 100u);
    EXPECT_EQ(core.stats().llibInsertedFp, 0u); // stalls, not slices
}

TYPED_TEST(AgingRobAnalyze, WidthBoundsSlowLaneInsertRate)
{
    auto wl = wload::makeWorkload(missProfile());
    typename TestFixture::Params p = TypeParam::params();
    typename TestFixture::Core core(p, *wl, mem::MemConfig::mem400());
    core.run(20000);
    // The analyze stage processes at most analyzeWidth instructions
    // per cycle, so inserts can never exceed width x cycles.
    EXPECT_GT(slowLaneInserts(core.stats()), 0u);
    EXPECT_LE(slowLaneInserts(core.stats()),
              core.stats().cycles * uint64_t(p.analyzeWidth));
}

TYPED_TEST(AgingRobAnalyze, LoadBlockedBySlowLaneStoreJoinsSlice)
{
    // The load of A has no register sources, so the LLBV alone would
    // call it high-locality. But it is blocked in the LSQ behind the
    // slow-lane store of the missing value: it belongs to the slice
    // and must be parked with it rather than stall Analyze for the
    // whole miss.
    StoreForwardSlice wl;
    typename TestFixture::Core core(TypeParam::params(), wl,
                                    mem::MemConfig::mem400());
    obs::Timeline timeline(1 << 17);
    core.attachTimeline(&timeline);
    core.run(3000);
    ASSERT_EQ(timeline.dropped(), 0u);

    std::set<uint64_t> blockedLoads;
    for (size_t i = 0; i < timeline.size(); ++i) {
        const obs::TimelineEvent &e = timeline.data()[i];
        if (e.kind == obs::EventKind::Fetch &&
            e.payload == StoreForwardSlice::BlockedLoadPc)
            blockedLoads.insert(e.seq);
    }
    size_t parked = 0;
    for (size_t i = 0; i < timeline.size(); ++i) {
        const obs::TimelineEvent &e = timeline.data()[i];
        if (e.kind == obs::EventKind::Park && blockedLoads.count(e.seq))
            ++parked;
    }
    // Nearly every committed iteration parks its blocked load.
    EXPECT_GT(parked, 900u);
}

// ---------------------------------------------------------------------
// D-KIP: LLIB and Address Processor
// ---------------------------------------------------------------------

TEST(Analyze, MissDependentsEnterLlib)
{
    auto wl = wload::makeWorkload(missProfile());
    DkipCore core(DkipMachine::params(), *wl,
                  mem::MemConfig::mem400());
    core.run(5000);
    // Dependent compute of every missing load flows through the LLIB.
    EXPECT_GT(core.stats().llibInsertedInt, 500u);
    // The loads themselves do not (they execute in the AP).
    EXPECT_GT(core.stats().mpExecuted, 0u);
}

TEST(Analyze, LoadsNeverOccupyTheLlib)
{
    auto wl = wload::makeWorkload(missProfile());
    DkipCore core(DkipMachine::params(), *wl,
                  mem::MemConfig::mem400());
    // LLIB insert counters only see non-memory instructions; with 2
    // dep ops per load, inserts ~= 2x the off-chip loads.
    core.run(20000);
    const auto &st = core.stats();
    EXPECT_NEAR(double(st.llibInsertedInt),
                2.0 * double(st.loadMem + st.mpExecuted) / 3.0 * 1.0,
                double(st.llibInsertedInt)); // loose sanity bound
    EXPECT_GT(st.loadMem, 1000u);
}

TEST(Analyze, SliceTransitivityViaRegisters)
{
    // dep chains of depth 2: the second-level op's source is the
    // first-level op (marked via LLBV), so it must follow it into
    // the LLIB even though it does not read the load directly.
    auto prof = missProfile(); // depComputePerLoad = 2 chains
    auto wl = wload::makeWorkload(prof);
    DkipCore core(DkipMachine::params(), *wl,
                  mem::MemConfig::mem400());
    core.run(20000);
    const auto &st = core.stats();
    // Inserts per off-chip load approach the chain depth of 2.
    double per_load = double(st.llibInsertedInt) /
                      double(st.loadMem ? st.loadMem : 1);
    EXPECT_GT(per_load, 1.2);
}

// ---------------------------------------------------------------------
// Byte pins of the two aging-ROB machines
// ---------------------------------------------------------------------

TEST(AnalyzePinned, KiloAndDkipCheckpointsAndRows)
{
    // KILO and D-KIP share the aging-ROB mechanism (Analyze, LLBV,
    // checkpoints, recovery). Any change to it that moves a single
    // byte of the mid-run KILOCKPT image or of the final JSONL row
    // fails here. Each case folds the FNV-1a 64 of the checkpoint
    // bytes at every step() pause into one digest.
    struct Pin
    {
        bool kilo;
        const char *workload;
        const char *mem;
        uint64_t ckptFnv;
        uint64_t rowFnv;
    };
    const Pin pins[] = {
        {true, "mcf", "mem-400", 0x19740a73de37653bull,
         0xb1bc6330a1febe1bull},
        {true, "swim", "mem-400", 0xd85d15cfb0767933ull,
         0x9a91381171eefbafull},
        {true, "gcc", "mem-400", 0x22dc3c4e54f4598full,
         0xf4bd16ee1d35a849ull},
        {true, "parser", "mem-400", 0x58c52332472fc488ull,
         0xd515a49d6aeb6352ull},
        {true, "wupwise", "mem-400", 0x38ebfb6e34011c5full,
         0xc416dfb4a7c1e20eull},
        {false, "mcf", "mem-400", 0x14dd3c262f61fd18ull,
         0x813603e2447b5c3full},
        {false, "swim", "mem-400", 0x172bedf1d75f1f51ull,
         0xf8c8c1f7566324e1ull},
        {false, "gcc", "mem-400", 0xf6e77b4bef1ff40dull,
         0x25bbeb7af9e3d589ull},
        {false, "parser", "mem-400", 0x71cf696bb8c51322ull,
         0xfccdebaad2a27b58ull},
        {false, "wupwise", "mem-400", 0x01525c6d791516d6ull,
         0x59fd6ee435d2dab8ull},
        {false, "swim", "l2-11", 0xd9a1e055ea2fec33ull,
         0xe0d5eccb8df4863dull},
    };
    sim::RunConfig rc;
    rc.warmupInsts = 5000;
    rc.measureInsts = 20000;
    for (const Pin &pin : pins) {
        sim::Session s(pin.kilo ? sim::MachineConfig::kilo1024()
                                : sim::MachineConfig::dkip2048(),
                       pin.workload, mem::MemConfig::byName(pin.mem),
                       rc);
        s.warmup();
        uint64_t ckpt_fnv = 0;
        for (int pause = 0; pause < 4 && !s.finished(); ++pause) {
            s.step(3000);
            ckpt::Checkpoint c = s.checkpoint();
            ckpt_fnv = ckpt_fnv * 1099511628211ull ^
                       ckpt::fnv1a(c.bytes.data(), c.bytes.size());
        }
        s.run();
        std::string row = sim::runResultJson(s.finish());
        uint64_t row_fnv = ckpt::fnv1a(
            reinterpret_cast<const uint8_t *>(row.data()), row.size());
        EXPECT_EQ(ckpt_fnv, pin.ckptFnv)
            << (pin.kilo ? "kilo " : "dkip ") << pin.workload << " "
            << pin.mem << " checkpoint bytes changed";
        EXPECT_EQ(row_fnv, pin.rowFnv)
            << (pin.kilo ? "kilo " : "dkip ") << pin.workload << " "
            << pin.mem << " JSONL row changed";
    }
}
