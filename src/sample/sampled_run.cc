#include "src/sample/sampled_run.hh"

#include <algorithm>
#include <cmath>

#include "src/util/logging.hh"

namespace kilo::sample
{

namespace
{

/** Detailed measurement of one representative interval. */
struct RepMeasure
{
    stats::Snapshot snap;     ///< per-interval (stats reset before)
    uint64_t committed = 0;   ///< instructions actually measured
    uint64_t cycles = 0;
    double weight = 0.0;      ///< instructions the cluster stands for
};

/** Additive stats scale with the cluster weight; point-in-time stats
 *  (gauges: ratios, peaks, percentiles) average instead. */
bool
isAdditive(const stats::Snapshot::Entry &e)
{
    return e.kind != stats::Kind::Gauge;
}

/**
 * How many instructions the machine can hold in flight — the bias
 * knob of sampled measurement. A representative interval starts from
 * a drained pipeline, so the first ~window instructions execute at
 * fill-up IPC, not steady-state IPC; each interval is therefore
 * preceded by a detailed (but unmeasured) warm-up run a few windows
 * long. Kilo-instruction machines need this most: a 2048-entry
 * virtual window is a real fraction of any reasonable interval.
 */
uint64_t
windowHint(const sim::MachineConfig &machine)
{
    switch (machine.kind) {
      case sim::MachineKind::Ooo:
        return machine.cp.robSize;
      case sim::MachineKind::Kilo:
        return machine.kilo.cp.robSize + machine.kilo.sliqCapacity;
      case sim::MachineKind::Dkip:
        return machine.dkip.cp.robSize +
               2 * machine.dkip.llibCapacity;
    }
    return 256;
}

} // anonymous namespace

SampledResult
runSampled(const sim::MachineConfig &machine,
           const std::string &workload_name,
           const mem::MemConfig &mem_config,
           const sim::RunConfig &run_config, obs::Profiler *profiler)
{
    wload::WorkloadPtr wl = sim::openWorkload(workload_name);
    return runSampled(machine, *wl, mem_config, run_config,
                      profiler);
}

SampledResult
runSampled(const sim::MachineConfig &machine, wload::Workload &workload,
           const mem::MemConfig &mem_config,
           const sim::RunConfig &run_config, obs::Profiler *profiler)
{
    const uint64_t W = run_config.warmupInsts;
    const uint64_t M = run_config.measureInsts;
    KILO_ASSERT(M > 0, "sampled run needs a measured region");
    uint64_t L = run_config.intervalInsts;
    if (!L)
        L = std::max<uint64_t>(M / 50, 1);
    if (L > M)
        L = M;

    // Phase 1: functional fingerprint of every interval.
    SignaturePass pass = [&] {
        obs::Profiler::Scope scope(profiler, "fingerprint");
        return fingerprintIntervals(workload, W, M, L);
    }();
    workload.reset();

    // Phase 2: cluster and pick representatives.
    Clustering clus = [&] {
        obs::Profiler::Scope scope(profiler, "cluster");
        return clusterSignatures(pass.signatures,
                                 run_config.numClusters);
    }();

    SampledResult out;
    out.totalIntervals = pass.signatures.size();
    out.simulatedIntervals = clus.representatives.size();
    out.assignment = clus.assignment;
    out.representatives = clus.representatives;

    // Cluster weight = instructions its member intervals cover.
    std::vector<double> weight(clus.representatives.size(), 0.0);
    for (size_t i = 0; i < clus.assignment.size(); ++i)
        weight[clus.assignment[i]] += double(pass.lengths[i]);

    // Phase 3: one core walks the stream once, representative to
    // representative in time order: block-skip the gap, functionally
    // warm the last W instructions, then measure the interval in
    // detail with freshly reset statistics.
    std::vector<uint32_t> order(clus.representatives.size());
    std::vector<RepMeasure> reps(clus.representatives.size());
    {
        obs::Profiler::Scope phase(profiler, "simulate");
        auto core =
            sim::Simulator::makeCore(machine, workload, mem_config);
        for (const auto &region : workload.regions())
            core->memory().prewarm(region.base, region.bytes);

        for (uint32_t c = 0; c < order.size(); ++c)
            order[c] = c;
        std::sort(order.begin(), order.end(),
                  [&](uint32_t a, uint32_t b) {
                      return clus.representatives[a] <
                             clus.representatives[b];
                  });

        const uint64_t detail_warm =
            4 * windowHint(machine) + 2000;

        uint64_t cursor = 0;
        for (uint32_t c : order) {
            uint64_t r = clus.representatives[c];
            uint64_t start = W + r * L;
            // Unmeasured detailed run that refills the window before the
            // interval, preceded by W instructions of functional warming
            // and a block-skip over the rest of the gap.
            uint64_t detail_start =
                start > detail_warm ? start - detail_warm : 0;
            uint64_t warm_start =
                detail_start > W ? detail_start - W : 0;
            if (warm_start > cursor) {
                out.skippedInsts += warm_start - cursor;
                core->fastForward(warm_start,
                                  core::PipelineBase::FfMode::Skip);
                cursor = warm_start;
            }
            if (detail_start > cursor) {
                out.warmInsts += detail_start - cursor;
                core->fastForward(detail_start,
                                  core::PipelineBase::FfMode::Warm);
                cursor = detail_start;
            }
            if (start > cursor) {
                out.detailInsts += start - cursor;
                core->run(start - cursor);
            }
            core->resetStats();
            core->run(pass.lengths[r]);
            RepMeasure &m = reps[c];
            m.snap = core->statsRegistry().snapshot();
            m.committed = core->stats().committed;
            m.cycles = core->stats().cycles;
            m.weight = weight[c];
            out.detailInsts += m.committed;
            cursor = start + pass.lengths[r];
        }
    } // simulate scope

    // Phase 4: reconstruct the whole-run snapshot. Additive stats
    // (counters, histogram sample counts) become weighted sums of
    // the per-interval rates; gauges become weight-averaged values.
    obs::Profiler::Scope phase(profiler, "reconstruct");
    KILO_ASSERT(!reps.empty(), "sampled run selected no intervals");
    double total_weight = 0.0;
    for (const RepMeasure &m : reps)
        total_weight += m.weight;

    double est_committed = 0.0, est_cycles = 0.0;
    for (const RepMeasure &m : reps) {
        double scale = m.weight / double(m.committed);
        est_committed += scale * double(m.committed);
        est_cycles += scale * double(m.cycles);
    }

    stats::Snapshot est = reps[order[0]].snap;  // layout template
    for (size_t e = 0; e < est.entries.size(); ++e) {
        stats::Snapshot::Entry &entry = est.entries[e];
        double acc = 0.0;
        for (const RepMeasure &m : reps) {
            const stats::Value &v = m.snap.entries[e].value;
            if (isAdditive(entry))
                acc += (m.weight / double(m.committed)) *
                       v.asDouble();
            else
                acc += (m.weight / total_weight) * v.asDouble();
        }
        if (entry.value.real)
            entry.value = stats::Value::ofReal(acc);
        else
            entry.value = stats::Value::ofInt(
                uint64_t(std::llround(std::max(acc, 0.0))));
    }

    // The headline metric gets the best estimator available: the
    // ratio of the estimated totals, not an average of ratios.
    double ipc = est_cycles > 0.0 ? est_committed / est_cycles : 0.0;
    for (auto &entry : est.entries)
        if (entry.name == "ipc" && entry.value.real)
            entry.value = stats::Value::ofReal(ipc);

    // Predicted uncertainty: weighted cross-cluster dispersion of
    // each row stat's per-instruction rate (or gauge value),
    // relative to its weighted mean.
    for (size_t e = 0; e < est.entries.size(); ++e) {
        const stats::Snapshot::Entry &entry = est.entries[e];
        if (!entry.inRow)
            continue;
        auto rate = [&](const RepMeasure &m) {
            double v = m.snap.entries[e].value.asDouble();
            return isAdditive(entry) ? v / double(m.committed) : v;
        };
        double mean = 0.0;
        for (const RepMeasure &m : reps)
            mean += (m.weight / total_weight) * rate(m);
        double var = 0.0;
        for (const RepMeasure &m : reps) {
            double d = rate(m) - mean;
            var += (m.weight / total_weight) * d * d;
        }
        StatError err;
        err.name = entry.name;
        err.relSigma =
            mean != 0.0 ? std::sqrt(var) / std::fabs(mean) : 0.0;
        out.errorBars.push_back(std::move(err));
    }

    sim::RunResult &res = out.result;
    res.machine = machine.name;
    res.workload = workload.name();
    res.ipc = ipc;
    res.aborted = false;
    res.snapshot = std::move(est);
    res.stats.committed =
        uint64_t(std::llround(std::max(est_committed, 0.0)));
    res.stats.cycles =
        uint64_t(std::llround(std::max(est_cycles, 0.0)));
    return out;
}

} // namespace kilo::sample
