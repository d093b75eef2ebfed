/**
 * @file
 * Self-describing statistics registry.
 *
 * Components (core pipeline, memory hierarchy, the decoupled D-KIP /
 * KILO structures) register each statistic once, with a name and a
 * description, against the per-run Registry their PipelineBase owns:
 *
 *     reg.counter("cycles", "Simulated cycles", &st.cycles,
 *                 stats::Row::Yes);
 *     reg.gauge("ipc", "Committed instructions per cycle",
 *               [this] { return st.ipc(); }, stats::Row::Yes);
 *     reg.histogram("issue_latency", "Decode->issue distance",
 *                   &st.issueLatency);
 *
 * Counters and histograms stay plain fields on their owning component
 * — the hot loop keeps incrementing raw uint64_t's; the registry only
 * holds bindings. What registration buys:
 *
 *   - snapshot(): an ordered, typed copy of every value (RunResult,
 *     interval sampling, generic JSONL emission);
 *   - reset(): registry-driven zeroing at the end of warm-up —
 *     counters are zeroed and histograms reset *in place*, so bucket
 *     configuration is never reconstructed;
 *   - defs(): the self-describing schema (tools/stats_schema, whose
 *     golden dump CI diffs to catch accidental JSONL drift).
 *
 * Entries registered with Row::Yes form the stable JSONL row schema,
 * emitted in registration order; see src/stats/DESIGN.md for the
 * naming scheme and the schema stability policy.
 *
 * Duplicate names and names outside the naming scheme panic: two
 * components claiming one name, or a key the JSONL schema cannot
 * carry, is a simulator bug, never a runtime condition. Every core
 * registers its stats at construction, so the stats-schema golden
 * ctest exercises every shipped name on every machine kind.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/stats/snapshot.hh"
#include "src/util/histogram.hh"

namespace kilo::stats
{

/** Whether a stat belongs to the stable JSONL row schema. */
enum class Row : uint8_t
{
    No,
    Yes,
};

/** Per-run binding of names/descriptions to component statistics. */
class Registry
{
  public:
    /** One registered statistic. */
    struct Def
    {
        std::string name;
        std::string description;
        Kind kind = Kind::Counter;
        bool inRow = false;
        bool integer = true;  ///< value representation in snapshots

        uint64_t *counter = nullptr;            ///< Kind::Counter
        std::function<double()> realGauge;      ///< Kind::Gauge, real
        std::function<uint64_t()> intGauge;     ///< Kind::Gauge, int
        Histogram *hist = nullptr;              ///< Kind::Histogram
    };

    Registry() = default;

    /** Bindings point into the owning component; never copy. @{ */
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;
    /** @} */

    /** Register a zero-on-reset integer counter. */
    void counter(std::string name, std::string description,
                 uint64_t *src, Row row = Row::No);

    /** Register a derived real-valued gauge (never reset). */
    void gauge(std::string name, std::string description,
               std::function<double()> fn, Row row = Row::No);

    /** Register a derived integer-valued gauge (never reset). */
    void gaugeInt(std::string name, std::string description,
                  std::function<uint64_t()> fn, Row row = Row::No);

    /**
     * Register a histogram. Reset in place on reset() — bucket width
     * and count are preserved. Snapshots carry its sample count;
     * derived summaries (percentiles) are registered as gauges.
     */
    void histogram(std::string name, std::string description,
                   Histogram *hist);

    /** Registered definitions, in registration order. */
    const std::vector<Def> &defs() const { return defs_; }

    size_t size() const { return defs_.size(); }

    /** Current value of @p def. */
    static Value read(const Def &def);

    /** Ordered copy of every current value. */
    Snapshot snapshot() const;

    /**
     * Fold every current value into @p h (FNV-style multiply-mix, in
     * registration order) and return the result. Allocation-free —
     * the audit plane calls this at interval boundaries, so it must
     * never perturb the run it is hashing. Real-valued gauges
     * contribute their exact bit pattern: determinism auditing wants
     * "the same bits", not "approximately equal".
     */
    uint64_t foldValues(uint64_t h) const;

    /**
     * Zero every counter and reset every histogram in place; gauges
     * are derived and therefore untouched.
     */
    void reset() const;

  private:
    void add(Def def);

    std::vector<Def> defs_;
};

} // namespace kilo::stats

