/**
 * @file
 * Two-level data-memory hierarchy with fixed service latencies.
 *
 * This models the memory subsystems of Table 1 of the paper: an L1
 * (possibly perfect), an optional L2 (possibly infinite) and main
 * memory with a flat access time. Misses to a line that is already
 * in flight merge MSHR-style and complete together, which is what
 * gives streaming FP codes their memory-level parallelism.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/mem/cache.hh"
#include "src/mem/mshr.hh"
#include "src/stats/registry.hh"

namespace kilo::mem
{

/** Where an access was serviced. */
enum class ServiceLevel : uint8_t
{
    L1,      ///< L1 hit
    L2,      ///< L1 miss, L2 hit
    Memory,  ///< L2 miss (or merged into an in-flight line fill)
};

/** Name of a service level for stat output. */
const char *serviceLevelName(ServiceLevel lvl);

/** Outcome of one data access. */
struct AccessResult
{
    uint32_t latency = 0;        ///< total cycles from issue to data
    ServiceLevel level = ServiceLevel::L1;

    /** True when the Analyze stage must classify this long-latency. */
    bool offChip() const { return level == ServiceLevel::Memory; }
};

/**
 * Configuration of a memory subsystem (one row of Table 1, or the
 * default evaluation hierarchy of Table 2).
 *
 * Latencies are *total* from issue: an L2 hit costs l2Latency cycles,
 * not l1Latency + l2Latency; this matches the paper's "L2 access time
 * 11 (1+10)" notation.
 */
struct MemConfig
{
    std::string name = "MEM-400";
    uint32_t lineBytes = 64;

    bool perfectL1 = false;      ///< every access hits L1
    uint64_t l1Size = 32 * 1024;
    uint32_t l1Assoc = 4;
    uint32_t l1Latency = 2;

    bool hasL2 = true;
    bool perfectL2 = false;      ///< every L1 miss hits L2
    uint64_t l2Size = 512 * 1024;
    uint32_t l2Assoc = 8;
    uint32_t l2Latency = 11;

    uint32_t memLatency = 400;

    /**
     * Capacity of the MSHR file tracking in-flight off-chip fills.
     * The default is generous — far above the fills a core can have
     * outstanding within one memory latency — so merge behaviour (and
     * therefore timing) is identical to an unbounded tracker; see
     * MemoryHierarchy::mshrDisplacements() for the proof obligation.
     */
    uint32_t numMshrs = 4096;

    /**
     * Model finite MSHRs as a structural hazard: when true, an access
     * that would start a new off-chip fill while its MSHR set is full
     * of live fills is refused (MemoryHierarchy::wouldBlock) and the
     * core back-pressures — the issue slot retries next cycle —
     * instead of the file displacing the soonest-completing fill.
     * Off (the default) preserves the displacement model and is
     * timing-identical to earlier revisions.
     */
    bool mshrStall = false;

    /** Table 1 presets. @{ */
    static MemConfig l1Only();             ///< L1-2
    static MemConfig l2Perfect11();        ///< L2-11
    static MemConfig l2Perfect21();        ///< L2-21
    static MemConfig mem100();             ///< MEM-100
    static MemConfig mem400();             ///< MEM-400 (default)
    static MemConfig mem1000();            ///< MEM-1000
    /** @} */

    /** MEM-400 with an explicit L2 capacity (Figures 11/12 sweep). */
    static MemConfig withL2Size(uint64_t bytes);

    /**
     * Canonical preset registry: resolves either a short CLI alias
     * ("l1", "l2-11", "l2-21", "mem-100", "mem-400", "mem-1000") or a
     * preset's own name ("L1-2", "MEM-400", ...), case-insensitively.
     * Exits with a diagnostic on an unknown name — this is the one
     * name->config mapping examples/, bench/ and sweep-job parsing
     * share.
     */
    static MemConfig byName(const std::string &name);

    /** The short aliases byName() accepts, presentation order. */
    static std::vector<std::string> names();
};

/**
 * The data-memory hierarchy.
 *
 * access() returns the total service latency of a read or write and
 * updates tag state. In-flight off-chip line fills are tracked so
 * that a second miss to the same line completes when the first fill
 * arrives instead of paying a full memory round trip.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemConfig &cfg);

    /**
     * Perform one data access.
     *
     * @param addr     effective byte address
     * @param is_write true for stores
     * @param now      current cycle (for miss merging)
     */
    AccessResult access(uint64_t addr, bool is_write, uint64_t now);

    /**
     * Structural-hazard probe (MemConfig::mshrStall): true when an
     * access to @p addr would have to start a new off-chip fill and
     * every way of the line's MSHR set is live — the core must hold
     * the access and retry. Always false when mshrStall is off; never
     * mutates cache tag or statistics state beyond the MSHR file's
     * idempotent lazy expiry, so a false result followed by access()
     * behaves exactly as access() alone.
     */
    bool wouldBlock(uint64_t addr, uint64_t now);

    /**
     * Same structural answer as wouldBlock() without charging the
     * mshr_stalls counter: the stall-attribution classifier
     * (PipelineBase, src/obs/DESIGN.md) asks "is the head MSHR
     * blocked?" purely diagnostically, and the probe must not inflate
     * the back-pressure statistic the issue path owns. Shares
     * wouldBlock()'s only side effect — the MSHR file's idempotent
     * lazy expiry — so interleaving probes with accesses is
     * timing-invisible.
     */
    bool wouldBlockProbe(uint64_t addr, uint64_t now);

    /** Accesses refused by wouldBlock() (mshrStall back-pressure). */
    uint64_t mshrStalls() const { return nMshrStalls; }

    /** Configuration used to build this hierarchy. */
    const MemConfig &config() const { return cfg; }

    /** Statistics. @{ */
    uint64_t accesses() const { return nAccesses; }
    uint64_t l1Misses() const { return nL1Misses; }

    /** Misses of an existing L2 (0 for hierarchies without one). */
    uint64_t l2Misses() const { return nL2Misses; }

    /** Off-chip line fills started (L2 misses, plus L1 misses that go
     *  straight to memory when the hierarchy has no L2). */
    uint64_t memFills() const { return nMemFills; }

    /** Accesses merged into an already-in-flight fill. Merges are
     *  counted here only — never as additional L1/L2 misses. */
    uint64_t mshrMerges() const { return nMerges; }

    double
    l2MissRatio() const
    {
        return nAccesses ? double(nL2Misses) / double(nAccesses) : 0.0;
    }

    /** MSHR file instrumentation. @{ */
    uint32_t mshrOccupancy() const { return mshrs.occupancy(); }
    uint32_t mshrPeakOccupancy() const { return mshrs.peakOccupancy(); }
    uint32_t mshrCapacity() const { return mshrs.capacity(); }
    uint64_t mshrDisplacements() const { return mshrs.displacements(); }

    /** Per-set live-fill occupancy distribution, sampled at each
     *  fill allocation (MLP clustering; see MshrFile::setOccupancy). */
    const Histogram &mshrSetOccupancy() const
    {
        return mshrs.setOccupancy();
    }
    /** @} */
    /** @} */

    /** Zero statistics (end of warm-up); tag state is preserved. */
    void resetStats();

    /**
     * Register this hierarchy's statistics on @p reg — the memory
     * block of the stable JSONL row schema (mem_accesses ..
     * mshr_set_max) plus non-row diagnostics. Called once by the
     * owning core; the hierarchy must outlive the registry.
     */
    void registerStats(stats::Registry &reg);

    /**
     * Access the ceil(bytes / lineBytes) lines from @p base's in
     * address order, L1 and L2 each (functional warm-up; no latency,
     * MSHR or hierarchy statistics). The caches end byte-identical
     * to an access() per line, at a cost bounded by each level's size
     * however large the region (SetAssocCache::accessLines). A region
     * whose end wraps past 2^64 installs nothing.
     */
    void prewarm(uint64_t base, uint64_t bytes);

    /**
     * Functional-warming access: evolve L1/L2 tag state exactly as a
     * demand access would (LRU refresh on a hit, installation on a
     * miss) without timing, MSHR tracking or statistics. This is the
     * per-op fast-forward path of sampled simulation — caches stay
     * warm across skipped intervals at decode speed.
     */
    void warmAccess(uint64_t addr);

    /** Serialize / restore tag state, in-flight fills and counters.
     *  Geometry is configuration and must match. @{ */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        if (l1)
            l1->save(s);
        if (l2)
            l2->save(s);
        mshrs.save(s);
        s.template scalar<uint64_t>(nAccesses);
        s.template scalar<uint64_t>(nL1Misses);
        s.template scalar<uint64_t>(nL2Misses);
        s.template scalar<uint64_t>(nMemFills);
        s.template scalar<uint64_t>(nMerges);
        s.template scalar<uint64_t>(nMshrStalls);
    }

    template <typename Source>
    void
    load(Source &s)
    {
        if (l1)
            l1->load(s);
        if (l2)
            l2->load(s);
        mshrs.load(s);
        nAccesses = s.template scalar<uint64_t>();
        nL1Misses = s.template scalar<uint64_t>();
        nL2Misses = s.template scalar<uint64_t>();
        nMemFills = s.template scalar<uint64_t>();
        nMerges = s.template scalar<uint64_t>();
        nMshrStalls = s.template scalar<uint64_t>();
    }
    /** @} */

  private:
    uint64_t lineOf(uint64_t addr) const { return addr / cfg.lineBytes; }

    MemConfig cfg;
    std::unique_ptr<SetAssocCache> l1;
    std::unique_ptr<SetAssocCache> l2;

    /** In-flight off-chip fills: fixed capacity, zero steady-state
     *  heap traffic, O(ways) lookup (src/mem/mshr.hh). */
    MshrFile mshrs;

    uint64_t nAccesses = 0;
    uint64_t nL1Misses = 0;
    uint64_t nL2Misses = 0;
    uint64_t nMemFills = 0;
    uint64_t nMerges = 0;
    uint64_t nMshrStalls = 0;
};

} // namespace kilo::mem

