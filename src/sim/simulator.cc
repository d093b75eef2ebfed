#include "src/sim/simulator.hh"

#include "src/core/ooo_core.hh"
#include "src/dkip/dkip_core.hh"
#include "src/kilo_proc/kilo_core.hh"
#include "src/sim/session.hh"
#include "src/util/logging.hh"

namespace kilo::sim
{

std::unique_ptr<core::PipelineBase>
Simulator::makeCore(const MachineConfig &machine,
                    wload::Workload &workload,
                    const mem::MemConfig &mem_config)
{
    switch (machine.kind) {
      case MachineKind::Ooo:
        return std::make_unique<core::OooCore>(machine.cp, workload,
                                               mem_config);
      case MachineKind::Kilo:
        return std::make_unique<kilo_proc::KiloCore>(
            machine.kilo, workload, mem_config);
      case MachineKind::Dkip:
        return std::make_unique<dkip::DkipCore>(machine.dkip, workload,
                                                mem_config);
    }
    KILO_PANIC("unknown MachineKind");
}

// Simulator::run is the fire-and-forget wrapper: a Session advanced
// straight to completion. Callers that need mid-flight sampling,
// wall-clock pacing or clean aborts construct the Session themselves
// (src/sim/session.hh).

RunResult
Simulator::run(const MachineConfig &machine,
               const std::string &workload_name,
               const mem::MemConfig &mem_config,
               const RunConfig &run_config)
{
    wload::WorkloadPtr wl = openWorkload(workload_name);
    return run(machine, *wl, mem_config, run_config);
}

RunResult
Simulator::run(const MachineConfig &machine, wload::Workload &workload,
               const mem::MemConfig &mem_config,
               const RunConfig &run_config)
{
    Session session(machine, workload, mem_config, run_config);
    session.warmup();
    session.run();
    return session.finish();
}

} // namespace kilo::sim
