/**
 * @file
 * Shows how to drive the simulator with your own workload: either a
 * custom WorkloadProfile (the parameterised generator), a hand-built
 * Workload subclass emitting explicit micro-ops, or a recorded
 * binary trace.
 *
 * Modes:
 *   custom_workload                      demo (profile + subclass)
 *   custom_workload --record FILE [NAME] capture preset NAME (default
 *                                        swim) to FILE while running
 *                                        it live; prints the JSONL row
 *   custom_workload --replay FILE        replay FILE on the same
 *                                        machine; prints the JSONL row
 *
 * A --record row and its --replay row are byte-identical — that
 * equality is checked in CI against a golden trace.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "src/sim/simulator.hh"
#include "src/sim/sweep_engine.hh"
#include "src/trace/capture.hh"
#include "src/trace/trace_reader.hh"
#include "src/wload/synthetic.hh"

using namespace kilo;

namespace
{

/** A hand-rolled workload: a saxpy-like kernel with one hot miss. */
class SaxpyWorkload : public wload::Workload
{
  public:
    isa::MicroOp
    next() override
    {
        // y[i] = a * x[i] + y[i], streaming over 16MB arrays.
        isa::MicroOp op;
        switch (phase++) {
          case 0:
            op = isa::makeAlu(4, 4, isa::NoReg, 0x100); // i++
            break;
          case 1:
            op = isa::makeLoad(40, 4, 0x10000000 + pos, 0x104);
            break;
          case 2:
            op = isa::makeLoad(41, 4, 0x30000000 + pos, 0x108);
            break;
          case 3:
            op = isa::makeFpMul(42, 40, 50, 0x10c);
            break;
          case 4:
            op = isa::makeFpAdd(43, 42, 41, 0x110);
            break;
          case 5:
            op = isa::makeStore(4, 43, 0x30000000 + pos, 0x114);
            break;
          default:
            op = isa::makeBranch(4, ++iters % 1024 != 0, 0x100,
                                 0x118);
            phase = 0;
            pos = (pos + 8) % (16 << 20);
            break;
        }
        return op;
    }

    const std::string &name() const override { return label; }
    bool isFp() const override { return true; }

    void
    reset() override
    {
        phase = 0;
        pos = 0;
        iters = 0;
    }

    std::vector<wload::AddressRegion>
    regions() const override
    {
        return {{0x10000000, 16 << 20}, {0x30000000, 16 << 20}};
    }

  private:
    std::string label = "saxpy";
    int phase = 0;
    uint64_t pos = 0;
    uint64_t iters = 0;
};

/** Machine/memory/length shared by --record and --replay, so the
 *  replayed JSONL row is comparable to the recorded one. */
sim::RunConfig
traceRunConfig()
{
    return sim::RunConfig::sweep();
}

int
recordMode(const std::string &path, const std::string &preset)
{
    wload::SyntheticWorkload inner(wload::profileByName(preset));
    trace::CapturingWorkload capture(inner, path,
                                     inner.profile().seed);
    auto res = sim::Simulator::run(sim::MachineConfig::dkip2048(),
                                   capture, mem::MemConfig::mem400(),
                                   traceRunConfig());
    capture.finish();
    std::printf("%s\n", sim::runResultJson(res).c_str());
    std::fprintf(stderr, "recorded %llu micro-ops to %s\n",
                 (unsigned long long)capture.recorded(),
                 path.c_str());
    return 0;
}

int
replayMode(const std::string &path)
{
    auto res = sim::Simulator::run(sim::MachineConfig::dkip2048(),
                                   "trace:" + path,
                                   mem::MemConfig::mem400(),
                                   traceRunConfig());
    std::printf("%s\n", sim::runResultJson(res).c_str());
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        if (argc >= 3 && std::strcmp(argv[1], "--record") == 0)
            return recordMode(argv[2], argc > 3 ? argv[3] : "swim");
        if (argc == 3 && std::strcmp(argv[1], "--replay") == 0)
            return replayMode(argv[2]);
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    if (argc != 1) {
        std::fprintf(stderr,
                     "usage: %s [--record FILE [NAME] | --replay "
                     "FILE]\n", argv[0]);
        return 2;
    }
    // Option A: parameterise the built-in generator.
    wload::WorkloadProfile prof;
    prof.name = "my-stream";
    prof.fp = true;
    prof.streamLoads = 2;
    prof.numStreams = 2;
    prof.streamBytes = 8 << 20;
    prof.streamStride = 64;
    prof.indepCompute = 4;
    prof.branchRandFrac = 0.01;
    auto generated = wload::makeWorkload(prof);

    // Option B: write a Workload subclass.
    SaxpyWorkload saxpy;

    for (auto machine : {sim::MachineConfig::r10_64(),
                         sim::MachineConfig::dkip2048()}) {
        auto a = sim::Simulator::run(machine, *generated,
                                     mem::MemConfig::mem400(),
                                     sim::RunConfig());
        auto b = sim::Simulator::run(machine, saxpy,
                                     mem::MemConfig::mem400(),
                                     sim::RunConfig());
        std::printf("%-10s  %-10s IPC %.2f   %-6s IPC %.2f\n",
                    machine.name.c_str(), a.workload.c_str(), a.ipc,
                    b.workload.c_str(), b.ipc);
        saxpy.reset();
    }
    std::printf("\nThe decoupled machine hides the streaming misses "
                "both ways of describing the kernel.\n");
    return 0;
}
