/**
 * @file
 * Quickstart: run one benchmark on the D-KIP and a baseline, print
 * the headline numbers.
 *
 *     ./quickstart [benchmark] [machine]
 *
 * benchmark: any SPEC2000-like name (default "swim")
 * machine:   r10-64 | r10-256 | kilo | dkip | all (default "all")
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/sim/simulator.hh"
#include "src/sim/table.hh"

using namespace kilo;

namespace
{

void
report(const sim::RunResult &r)
{
    const auto &s = r.stats;
    std::printf("%-10s %-8s  IPC %5.2f  cycles %9lu  "
                "bp-acc %5.1f%%  L2-miss %4.1f%%  MP-frac %4.1f%%\n",
                r.machine.c_str(), r.workload.c_str(), r.ipc,
                (unsigned long)s.cycles,
                100.0 * (1.0 - s.mispredictRate()),
                100.0 * r.snapshot.value("l2_miss_ratio"),
                100.0 * s.mpFraction());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "swim";
    std::string machine = argc > 2 ? argv[2] : "all";

    std::vector<sim::MachineConfig> machines;
    if (machine == "r10-64" || machine == "all")
        machines.push_back(sim::MachineConfig::r10_64());
    if (machine == "r10-256" || machine == "all")
        machines.push_back(sim::MachineConfig::r10_256());
    if (machine == "kilo" || machine == "all")
        machines.push_back(sim::MachineConfig::kilo1024());
    if (machine == "dkip" || machine == "all")
        machines.push_back(sim::MachineConfig::dkip2048());
    if (machines.empty()) {
        std::fprintf(stderr, "unknown machine '%s'\n",
                     machine.c_str());
        return 1;
    }

    std::printf("benchmark %s, MEM-400 hierarchy (Table 2 defaults)\n",
                bench.c_str());
    for (const auto &m : machines) {
        auto res = sim::Simulator::run(m, bench,
                                       mem::MemConfig::mem400(),
                                       sim::RunConfig());
        report(res);
    }
    return 0;
}
