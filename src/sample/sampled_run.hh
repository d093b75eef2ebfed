/**
 * @file
 * Sampled simulation: estimate a whole run's statistics from detailed
 * simulation of a few cluster-representative intervals.
 *
 * The classic SimPoint recipe on top of sim::Session's machinery
 * (full methodology in src/sample/DESIGN.md):
 *
 *   1. fingerprint the measured region's fixed-size intervals with a
 *      functional walk (src/sample/signature.hh);
 *   2. k-means-cluster the signatures and pick one representative
 *      interval per cluster;
 *   3. simulate only the representatives, in stream order, on ONE
 *      core — block-skipping the gaps and functionally warming
 *      caches + branch predictor over the last warmupInsts before
 *      each representative (core::PipelineBase::fastForward);
 *   4. reconstruct whole-run statistics as cluster-weighted sums of
 *      the per-representative stats::Registry snapshots, with a
 *      cross-cluster dispersion error bar per row stat.
 *
 * Everything is deterministic — seeding, iteration order, tie
 * breaks, reconstruction arithmetic — so a sampled job emits the
 * same JSONL row from any process, which is what lets sampled sweep
 * matrices shard exactly like exact ones (KILOSHARD manifests carry
 * the sampling directives; see src/shard/).
 *
 * Entry points: SamplingMode::Sampled in RunConfig routes
 * Simulator::run (and every SweepEngine matrix) here; call
 * runSampled() directly to also get the clustering and error bars.
 */

#pragma once

#include <string>
#include <vector>

#include "src/obs/profiler.hh"
#include "src/sample/signature.hh"
#include "src/sim/simulator.hh"

namespace kilo::sample
{

/** Predicted relative uncertainty of one reconstructed row stat. */
struct StatError
{
    std::string name;
    double relSigma = 0.0;  ///< weighted cross-cluster dispersion / mean
};

/** A sampled run's estimate plus its provenance. */
struct SampledResult
{
    /** Reconstructed whole-run result; runResultJson-able like an
     *  exact RunResult (counters are weighted sums, gauges weighted
     *  means, ipc rebuilt from estimated committed/cycles). */
    sim::RunResult result;

    uint64_t totalIntervals = 0;      ///< intervals fingerprinted
    uint64_t simulatedIntervals = 0;  ///< representatives simulated
    uint64_t detailInsts = 0;         ///< instructions in detail
    uint64_t warmInsts = 0;           ///< functionally warmed
    uint64_t skippedInsts = 0;        ///< block-skipped

    /** interval index -> cluster id. */
    std::vector<uint32_t> assignment;

    /** cluster id -> representative interval index. */
    std::vector<uint32_t> representatives;

    /** Per row-stat predicted uncertainty, registration order. */
    std::vector<StatError> errorBars;
};

/**
 * Run (machine, workload, memory) sampled. @p run_config supplies
 * the region sizes (warmupInsts / measureInsts), the interval length
 * (intervalInsts; 0 = measureInsts / 50), and the cluster count
 * (numClusters); samplingMode itself is ignored here — calling this
 * function IS the opt-in. The workload-name overload resolves names
 * exactly like Session (presets or "trace:<path>", via
 * sim::openWorkload).
 *
 * @p profiler, when non-null, receives one wall-time phase per
 * methodology stage — "fingerprint", "cluster", "simulate",
 * "reconstruct" — mirroring Session::attachProfiler's
 * warmup/measure/finish phases for exact runs. Null costs nothing
 * and simulated results are identical either way. @{
 */
SampledResult runSampled(const sim::MachineConfig &machine,
                         const std::string &workload_name,
                         const mem::MemConfig &mem_config,
                         const sim::RunConfig &run_config,
                         obs::Profiler *profiler = nullptr);

SampledResult runSampled(const sim::MachineConfig &machine,
                         wload::Workload &workload,
                         const mem::MemConfig &mem_config,
                         const sim::RunConfig &run_config,
                         obs::Profiler *profiler = nullptr);
/** @} */

} // namespace kilo::sample

