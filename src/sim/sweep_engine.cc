#include "src/sim/sweep_engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <future>
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
    runOrdered(
        jobs.size(),
        [&](size_t i) {
            const SweepJob &job = jobs[i];
            return Simulator::run(job.machine, job.workload, job.mem,
                                  job.run);
        },
        [&](size_t i, RunResult &r) { results[i] = std::move(r); });
    return results;
}

void
SweepEngine::runOrdered(
    size_t count, const std::function<RunResult(size_t)> &job,
    const std::function<void(size_t, RunResult &)> &done) const
{
    unsigned workers = unsigned(std::min<size_t>(numThreads, count));
    if (workers <= 1) {
        for (size_t i = 0; i < count; ++i) {
            RunResult r = job(i);
            done(i, r);
        }
        return;
    }

    // Self-scheduling index dispatch: each worker claims the next
    // unstarted job; its future carries the result (or exception) to
    // the calling thread, which drains them in index order. Runs
    // share nothing, so placement affects only the finish time.
    std::vector<std::packaged_task<RunResult()>> tasks;
    std::vector<std::future<RunResult>> results;
    tasks.reserve(count);
    results.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        tasks.emplace_back([&job, i] { return job(i); });
        results.push_back(tasks.back().get_future());
    }
    std::atomic<size_t> next{0};
    auto worker = [&]() {
        size_t i;
        while ((i = next.fetch_add(1, std::memory_order_relaxed)) < count)
            tasks[i]();
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    try {
        for (size_t i = 0; i < count; ++i) {
            RunResult r = results[i].get();
            done(i, r);
        }
    } catch (...) {
        next.store(count);  // workers start nothing more
        for (auto &th : pool)
            th.join();
        throw;
    }
    for (auto &th : pool)
        th.join();
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
