#include "src/sim/sweep_engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <ostream>
#include <thread>

#include "src/stats/json.hh"
#include "src/util/logging.hh"

namespace kilo::sim
{

namespace
{

unsigned
defaultThreads()
{
    if (const char *env = std::getenv("KILO_SWEEP_THREADS")) {
        long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return unsigned(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // anonymous namespace

SweepEngine::SweepEngine(unsigned num_threads)
    : numThreads(num_threads ? num_threads : defaultThreads())
{}

std::vector<RunResult>
SweepEngine::run(const std::vector<SweepJob> &jobs) const
{
    std::vector<RunResult> results(jobs.size());

    auto execute = [&](size_t i) {
        const SweepJob &job = jobs[i];
        results[i] =
            Simulator::run(job.machine, job.workload, job.mem,
                           job.run);
    };

    unsigned workers =
        unsigned(std::min<size_t>(numThreads, jobs.size()));
    if (workers <= 1) {
        for (size_t i = 0; i < jobs.size(); ++i)
            execute(i);
        return results;
    }

    // Self-scheduling index dispatch: each worker claims the next
    // unstarted job. Runs share nothing, so placement does not affect
    // the results, only the finish time.
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            execute(i);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    return results;
}

std::vector<RunResult>
SweepEngine::runSubset(const std::vector<SweepJob> &jobs,
                       const std::vector<size_t> &indices) const
{
    std::vector<SweepJob> subset;
    subset.reserve(indices.size());
    for (size_t idx : indices) {
        KILO_ASSERT(idx < jobs.size(),
                    "shard index %zu outside a %zu-job matrix", idx,
                    jobs.size());
        subset.push_back(jobs[idx]);
    }
    return run(subset);
}

std::vector<size_t>
SweepEngine::shardIndices(size_t num_jobs, uint32_t shard_index,
                          uint32_t shard_count)
{
    KILO_ASSERT(shard_count > 0, "shard count must be positive");
    KILO_ASSERT(shard_index < shard_count,
                "shard index %u outside count %u", shard_index,
                shard_count);
    std::vector<size_t> indices;
    indices.reserve(num_jobs / shard_count + 1);
    for (size_t i = shard_index; i < num_jobs; i += shard_count)
        indices.push_back(i);
    return indices;
}

std::vector<SweepJob>
SweepEngine::matrix(const std::vector<MachineConfig> &machines,
                    const std::vector<std::string> &workloads,
                    const std::vector<mem::MemConfig> &mems,
                    const RunConfig &run_config)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(machines.size() * workloads.size() * mems.size());
    for (const auto &machine : machines)
        for (const auto &workload : workloads)
            for (const auto &mem : mems)
                jobs.push_back(
                    SweepJob{machine, workload, mem, run_config});
    return jobs;
}

std::vector<SweepJob>
SweepEngine::matrixMemMajor(
    const std::vector<MachineConfig> &machines,
    const std::vector<std::string> &workloads,
    const std::vector<mem::MemConfig> &mems,
    const RunConfig &run_config)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(machines.size() * workloads.size() * mems.size());
    for (const auto &mem : mems)
        for (const auto &machine : machines)
            for (const auto &workload : workloads)
                jobs.push_back(
                    SweepJob{machine, workload, mem, run_config});
    return jobs;
}

std::vector<SweepJob>
SweepEngine::matrixByName(const std::vector<std::string> &machines,
                          const std::vector<std::string> &workloads,
                          const std::vector<std::string> &mems,
                          const RunConfig &run_config)
{
    std::vector<MachineConfig> machine_cfgs;
    machine_cfgs.reserve(machines.size());
    for (const auto &name : machines)
        machine_cfgs.push_back(MachineConfig::byName(name));
    std::vector<mem::MemConfig> mem_cfgs;
    mem_cfgs.reserve(mems.size());
    for (const auto &name : mems)
        mem_cfgs.push_back(mem::MemConfig::byName(name));
    return matrix(machine_cfgs, workloads, mem_cfgs, run_config);
}

std::vector<RunResult>
SweepEngine::runSuite(const MachineConfig &machine,
                      const std::vector<std::string> &suite,
                      const mem::MemConfig &mem_config,
                      const RunConfig &run_config) const
{
    return run(matrix({machine}, suite, {mem_config}, run_config));
}

std::string
runResultJson(const RunResult &r)
{
    // Generated generically: identity fields, then every Row::Yes
    // stat of the snapshot in registration order — the stable JSONL
    // schema tools/stats_schema pins (see src/stats/DESIGN.md).
    stats::JsonRowBuilder row;
    row.field("machine", r.machine).field("workload", r.workload);
    row.rowStats(r.snapshot);
    return row.str();
}

void
writeJsonRows(std::ostream &os, const std::vector<RunResult> &results)
{
    for (const auto &r : results)
        os << runResultJson(r) << "\n";
}

void
writeIntervalRows(std::ostream &os, const RunResult &result)
{
    for (const auto &s : result.intervals) {
        stats::JsonRowBuilder row;
        row.field("machine", result.machine)
            .field("workload", result.workload)
            .field("interval", s.index)
            .field("interval_cycles", s.deltaCycles)
            .field("interval_committed", s.deltaCommitted)
            .field("interval_ipc", s.intervalIpc());
        row.rowStats(s.snapshot);
        os << row.str() << "\n";
    }
}

} // namespace kilo::sim
