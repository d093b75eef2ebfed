/**
 * @file
 * Sweep-shard manifest: the self-contained, shippable description of
 * one sweep matrix slice.
 *
 * A manifest is a small versioned text file (format below, full
 * specification in src/shard/DESIGN.md) naming a (machine × workload
 * × memory) matrix by preset names and trace paths, the RunConfig
 * scalars that apply to every job, and which shard of how many this
 * file describes:
 *
 *     KILOSHARD 1
 *     machine r10-64
 *     machine dkip
 *     workload swim
 *     workload trace:/data/mcf.ktrc
 *     mem mem-400
 *     warmup 20000
 *     measure 100000
 *     max_cycles 0
 *     shard 0/4
 *
 * Optional sampling directives (`interval N`, `clusters K`,
 * `sampling sampled`) make every job of the matrix a sampled run
 * (src/sample/, dispatched by runJob()); an optional `audit N`
 * directive sets the determinism-audit cadence
 * (RunConfig::auditIntervalInsts) of every job. All of them are
 * emitted by serialize() only when they deviate from the defaults,
 * so older manifests round-trip unchanged.
 *
 * Every worker process of a sharded sweep loads the same manifest
 * (the shard line is overridable on the worker command line), expands
 * the same full matrix through SweepEngine::matrixByName, and takes
 * its slice through SweepEngine::shardIndices — so the partitioning
 * is a pure function of the manifest and never needs coordination.
 *
 * Malformed input (bad magic, future version, unknown or removed
 * directive, duplicate scalar, unparseable number, impossible shard
 * spec, empty matrix) raises ShardError with a line-numbered
 * message; resolving *names* (machines, memories) is deferred to job
 * expansion, where the canonical byName registries report unknown
 * presets.
 */

#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/sweep_engine.hh"

namespace kilo::shard
{

/** Malformed manifest input or an orchestration failure. */
class ShardError : public std::runtime_error
{
  public:
    explicit ShardError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Current manifest format version; bumped on any layout change. */
constexpr uint32_t ManifestVersion = 1;

/** Parsed sweep-shard manifest. */
struct Manifest
{
    /** Matrix axes, in declaration order (machine-major expansion,
     *  matching SweepEngine::matrix). @{ */
    std::vector<std::string> machines;
    std::vector<std::string> workloads;  ///< presets or "trace:<path>"
    std::vector<std::string> mems;
    /** @} */

    /** Per-job run scalars (warmup/measure/max_cycles plus the
     *  optional interval/clusters/audit directives). */
    sim::RunConfig run;

    /** `sampling sampled`: every job is a sample::runSampled
     *  estimate instead of an exact Simulator::run. */
    bool sampled = false;

    /** Which slice this manifest describes; 0/1 = the whole matrix. @{ */
    uint32_t shardIndex = 0;
    uint32_t shardCount = 1;
    /** @} */

    /** Parse a manifest; throws ShardError on malformed input. @{ */
    static Manifest parse(std::istream &in, const std::string &where);
    static Manifest parse(const std::string &text);
    static Manifest load(const std::string &path);
    /** @} */

    /** Canonical text form; parse(serialize()) reproduces *this. */
    std::string serialize() const;

    /** Write serialize() to @p path; throws ShardError on failure. */
    void save(const std::string &path) const;

    /** Jobs of the FULL matrix (machine-major), via matrixByName;
     *  exits with a diagnostic on an unknown preset name. */
    std::vector<sim::SweepJob> jobs() const;

    /** Run one job of this manifest: sample::runSampled when
     *  `sampled`, else the exact Simulator::run. */
    sim::RunResult runJob(const sim::SweepJob &job) const;

    /** Size of the full matrix. */
    size_t jobCount() const
    {
        return machines.size() * workloads.size() * mems.size();
    }

    /** Global job indices this manifest's shard owns. */
    std::vector<size_t> shardJobIndices() const
    {
        return sim::SweepEngine::shardIndices(jobCount(), shardIndex,
                                              shardCount);
    }

    bool
    operator==(const Manifest &o) const
    {
        return machines == o.machines && workloads == o.workloads &&
               mems == o.mems &&
               run.warmupInsts == o.run.warmupInsts &&
               run.measureInsts == o.run.measureInsts &&
               run.maxCycles == o.run.maxCycles &&
               run.intervalInsts == o.run.intervalInsts &&
               run.numClusters == o.run.numClusters &&
               sampled == o.sampled &&
               run.auditIntervalInsts ==
                   o.run.auditIntervalInsts &&
               shardIndex == o.shardIndex &&
               shardCount == o.shardCount;
    }
};

/**
 * Parse a "I/N" shard specification (worker --shard override).
 * Throws ShardError unless I and N are integers with I < N, N >= 1.
 */
void parseShardSpec(const std::string &spec, uint32_t &index,
                    uint32_t &count);

} // namespace kilo::shard

