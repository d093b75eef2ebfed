/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot paths:
 * cache/hierarchy lookups, perceptron prediction, arena recycling,
 * issue-queue operations, LLIB/LLRF traffic, workload generation,
 * whole-core simulation throughput (simulated instructions per
 * second) and suite-level sweep throughput.
 *
 * Run with --benchmark_format=json for the machine-readable rows the
 * CI harness archives.
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/core/inst_arena.hh"
#include "src/core/issue_queue.hh"
#include "src/core/ooo_core.hh"
#include "src/dkip/dkip_core.hh"
#include "src/dkip/llib.hh"
#include "src/dkip/llrf.hh"
#include "src/mem/hierarchy.hh"
#include "src/pred/perceptron.hh"
#include "src/sim/simulator.hh"
#include "src/sim/sweep.hh"
#include "src/sim/sweep_engine.hh"
#include "src/trace/capture.hh"
#include "src/trace/trace_reader.hh"
#include "src/util/rng.hh"
#include "src/wload/profile.hh"
#include "src/wload/synthetic.hh"
#include "src/wload/trace_window.hh"

using namespace kilo;

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    mem::CacheGeometry g;
    g.sizeBytes = 512 * 1024;
    g.assoc = 8;
    mem::SetAssocCache cache(g);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(rng.range(4 * 1024 * 1024)));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyAccess(benchmark::State &state)
{
    mem::MemoryHierarchy mem(mem::MemConfig::mem400());
    Rng rng(2);
    uint64_t now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mem.access(rng.range(8 * 1024 * 1024), false, now));
        now += 3;
    }
}
BENCHMARK(BM_HierarchyAccess);

/** Streaming-miss traffic: every access touches a new line, the
 *  pattern that made the old unordered_map fill tracker leak one
 *  entry per line and rehash under growth. The MSHR file keeps this
 *  O(ways) probes over a fixed array. */
void
BM_MemHierarchyStream(benchmark::State &state)
{
    mem::MemoryHierarchy mem(mem::MemConfig::mem400());
    uint64_t line = 0;
    uint64_t now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.access(line * 64, false, now));
        ++line;
        now += 2;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MemHierarchyStream);

void
BM_PerceptronLookup(benchmark::State &state)
{
    pred::PerceptronPredictor bp;
    uint64_t pc = 0x1000, hist = 0xdeadbeef;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bp.lookup(pc, hist));
        pc += 4;
        hist = (hist << 1) | 1;
    }
}
BENCHMARK(BM_PerceptronLookup);

void
BM_PerceptronTrain(benchmark::State &state)
{
    pred::PerceptronPredictor bp;
    uint64_t pc = 0x1000, hist = 0;
    bool taken = false;
    for (auto _ : state) {
        bp.train(pc, hist, taken);
        pc += 4;
        hist = (hist << 1) | (taken ? 1 : 0);
        taken = !taken;
    }
}
BENCHMARK(BM_PerceptronTrain);

void
BM_InstArenaAllocFree(benchmark::State &state)
{
    core::InstArena arena;
    uint64_t seq = 0;
    for (auto _ : state) {
        core::InstRef ref = arena.alloc();
        core::DynInst &inst = arena.get(ref);
        inst.op = isa::makeAlu(1, 2, 3);
        inst.seq = ++seq;
        benchmark::DoNotOptimize(inst.seq);
        arena.free(ref);
    }
}
BENCHMARK(BM_InstArenaAllocFree);

void
BM_IssueQueueInsertPop(benchmark::State &state)
{
    core::InstArena arena;
    core::IssueQueue q("bench", 4096, core::SchedPolicy::OutOfOrder,
                       arena);
    q.assignId(0);
    uint64_t seq = 0;
    for (auto _ : state) {
        core::InstRef ref = arena.alloc();
        core::DynInst &inst = arena.get(ref);
        inst.op = isa::makeAlu(1, 2, 3);
        inst.seq = ++seq;
        inst.readyFlag = true;
        q.insert(ref);
        core::InstRef got = q.popReady(0);
        arena.get(got).issued = true;
        q.removeIssued(got);
        arena.free(got);
    }
}
BENCHMARK(BM_IssueQueueInsertPop);

void
BM_LlibPushPop(benchmark::State &state)
{
    core::InstArena arena;
    dkip::Llib llib("bench", 2048, arena);
    uint64_t seq = 0;
    for (auto _ : state) {
        core::InstRef ref = arena.alloc();
        core::DynInst &inst = arena.get(ref);
        inst.op = isa::makeAlu(1, 2, 3);
        inst.seq = ++seq;
        llib.push(ref);
        benchmark::DoNotOptimize(llib.popFront());
        arena.free(ref);
    }
}
BENCHMARK(BM_LlibPushPop);

void
BM_LlrfAllocRelease(benchmark::State &state)
{
    core::InstArena arena;
    dkip::Llrf llrf;
    core::InstRef ref = arena.alloc();
    core::DynInst &inst = arena.get(ref);
    for (auto _ : state) {
        llrf.tryAlloc(inst);
        llrf.release(inst);
        llrf.beginCycle();
    }
}
BENCHMARK(BM_LlrfAllocRelease);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto wl = wload::makeWorkload("swim");
    for (auto _ : state)
        benchmark::DoNotOptimize(wl->next());
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_WorkloadGeneration);

/** Trace replay throughput (micro-ops/s): record 256k swim ops once,
 *  then pull them zero-copy from the mapping through the batched
 *  nextBlock path; the acceptance bar is >= synthetic generation
 *  (BM_WorkloadGeneration items/s). */
void
BM_TraceReplay(benchmark::State &state)
{
    const char *path = "bench_trace_replay.ktrc";
    {
        // Record once: 256k swim ops, written via the block API.
        wload::SyntheticWorkload inner(
            wload::profileByName("swim"));
        trace::CapturingWorkload capture(inner, path,
                                         inner.profile().seed);
        isa::MicroOp buf[256];
        for (int i = 0; i < 1024; ++i)
            capture.nextBlock(buf, 256);
        capture.finish();
    }
    trace::TraceWorkload replay(path);
    isa::MicroOp buf[64];
    for (auto _ : state)
        benchmark::DoNotOptimize(replay.nextBlock(buf, 64));
    state.SetItemsProcessed(int64_t(state.iterations()) * 64);
    std::remove(path);
}
BENCHMARK(BM_TraceReplay);

/** Steady-state front-end pull: a TraceWindow walked sequentially,
 *  exercising the batched refill (one virtual call per RefillBatch
 *  micro-ops instead of one per op). */
void
BM_FetchBatched(benchmark::State &state)
{
    auto wl = wload::makeWorkload("swim");
    wload::TraceWindow window(*wl);
    uint64_t seq = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(window.op(seq));
        ++seq;
        if ((seq & 1023) == 0)
            window.release(seq);
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_FetchBatched);

void
BM_OooCoreSimThroughput(benchmark::State &state)
{
    auto wl = wload::makeWorkload("gzip");
    core::CoreParams params;
    core::OooCore core(params, *wl, mem::MemConfig::mem400());
    for (auto _ : state)
        core.run(1000);
    state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_OooCoreSimThroughput)->Unit(benchmark::kMillisecond);

void
BM_DkipCoreSimThroughput(benchmark::State &state)
{
    auto wl = wload::makeWorkload("swim");
    dkip::DkipCore core(dkip::DkipParams::dkip2048(), *wl,
                        mem::MemConfig::mem400());
    for (auto _ : state)
        core.run(1000);
    state.SetItemsProcessed(int64_t(state.iterations()) * 1000);
}
BENCHMARK(BM_DkipCoreSimThroughput)->Unit(benchmark::kMillisecond);

/** The acceptance-gate run: a fresh DkipCore simulating the 100k
 *  instructions a standard measured region commits. */
void
BM_DkipCore100kRun(benchmark::State &state)
{
    for (auto _ : state) {
        auto res = sim::Simulator::run(
            sim::MachineConfig::dkip2048(), "swim",
            mem::MemConfig::mem400(), sim::RunConfig());
        benchmark::DoNotOptimize(res.ipc);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 120000);
}
BENCHMARK(BM_DkipCore100kRun)->Unit(benchmark::kMillisecond);

/** Suite sweep through the SweepEngine at an explicit thread count
 *  (Arg). Compare Arg=1 against Arg=4 for the parallel speedup. */
void
BM_SweepEngineSuite(benchmark::State &state)
{
    sim::SweepEngine engine(unsigned(state.range(0)));
    auto suite = sim::fpSuite();
    for (auto _ : state) {
        auto results = engine.runSuite(
            sim::MachineConfig::dkip2048(), suite,
            mem::MemConfig::mem400(), sim::RunConfig::sweep());
        benchmark::DoNotOptimize(results.front().ipc);
    }
}
BENCHMARK(BM_SweepEngineSuite)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
