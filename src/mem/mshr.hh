/**
 * @file
 * Fixed-capacity MSHR file tracking in-flight off-chip line fills.
 *
 * The hierarchy used to track fills in an unbounded
 * std::unordered_map whose expired entries were only erased when the
 * same line was re-accessed — a streaming workload (exactly the FP
 * codes the paper studies) leaked one entry per missed line forever
 * and paid a hash probe on every access. This file replaces it with
 * a set-associative array sized at construction:
 *
 *  - lookup is O(ways) over a power-of-two set — no hashing, no
 *    growth, no heap traffic after construction;
 *  - expiry is lazy: a probed set reclaims its own expired ways, and
 *    a compact scan keyed off `now` (one sweep per fill latency)
 *    reclaims entries in sets that are never revisited, so
 *    steady-state occupancy is exact and bounded. The scan walks a
 *    dense index of the live ways only, not the whole array: a
 *    4096-entry file holding a few dozen fills costs a few dozen
 *    visits per sweep;
 *  - when a set is full of live fills the soonest-completing way is
 *    displaced (it loses only its merge window, never its timing) and
 *    the displacement is counted, so a capacity too small for a
 *    workload is visible in the stats instead of silently wrong.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "src/ckpt/serial.hh"
#include "src/util/histogram.hh"

namespace kilo::mem
{

/** Fixed-capacity file of in-flight line fills (MSHR array). */
class MshrFile
{
  public:
    /** Maximum ways per set; lookup cost is bounded by this. A file
     *  smaller than one full set gets exactly @c capacity ways. */
    static constexpr uint32_t Ways = 8;

    /**
     * @param capacity     requested number of entries (rounded up to
     *                     a whole power-of-two number of sets)
     * @param sweep_period cycles between compact expiry scans;
     *                     one fill latency keeps occupancy exact to
     *                     within a single fill lifetime
     */
    MshrFile(uint32_t capacity, uint64_t sweep_period);

    /**
     * Fill-completion cycle of the live in-flight fill covering
     * @p line, or 0 when no such fill exists. Expired entries met
     * along the way are reclaimed.
     */
    uint64_t lookup(uint64_t line, uint64_t now);

    /** Record an off-chip fill of @p line completing at @p fill_done.
     *  @pre fill_done > now (a fill takes at least one cycle) */
    void allocate(uint64_t line, uint64_t fill_done, uint64_t now);

    /**
     * True when every way of @p line's set holds a live fill, i.e. an
     * allocate() now would displace. Expired ways met along the walk
     * are reclaimed first. This is the structural-hazard probe of
     * MemConfig::mshrStall: the core holds the access back instead of
     * letting the file displace a merge window.
     */
    bool setFull(uint64_t line, uint64_t now);

    /** Total entries (post-rounding). */
    uint32_t capacity() const { return uint32_t(entries.size()); }

    /** Live in-flight fills as of the last operation. */
    uint32_t occupancy() const { return uint32_t(liveWays.size()); }

    /** High-water mark of occupancy since the last resetPeak(). */
    uint32_t peakOccupancy() const { return peak; }

    /** Live fills displaced by capacity pressure (should be 0 at a
     *  generous capacity; nonzero means merges were lost). */
    uint64_t displacements() const { return nDisplaced; }

    /**
     * Distribution of per-set live-fill occupancy, sampled at every
     * allocation (after insertion, so samples run 1..ways). This is
     * the MLP clustering view the paper's analysis needs: a workload
     * whose misses pile onto few sets shows a heavy tail here long
     * before displacements() goes nonzero.
     */
    const Histogram &setOccupancy() const { return setOccHist; }

    /** Mutable view for stats registration (reset-in-place binding). */
    Histogram &setOccupancy() { return setOccHist; }

    /** Restart peak tracking from the current occupancy (end of
     *  warm-up); in-flight fills themselves are preserved. */
    void
    resetPeak()
    {
        peak = occupancy();
        nDisplaced = 0;
        setOccHist.reset();
    }

    /** Serialize / restore in-flight fills and statistics. Capacity
     *  and sweep period are configuration. @{ */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        s.podVector(entries);
        setOccHist.save(s);
        s.template scalar<uint32_t>(occupancy());
        s.template scalar<uint32_t>(peak);
        s.template scalar<uint64_t>(nDisplaced);
        s.template scalar<uint64_t>(nextSweep);
    }

    template <typename Source>
    void
    load(Source &s)
    {
        size_t sz = entries.size();
        s.podVector(entries);
        ckpt::expectEq(entries.size(), sz, "MSHR capacity");
        setOccHist.load(s);
        liveWays.clear();
        for (uint32_t i = 0; i < entries.size(); ++i) {
            if (entries[i].fillDone != 0)
                markLive(i);
        }
        ckpt::expectEq(s.template scalar<uint32_t>(), occupancy(),
                       "MSHR live count");
        peak = s.template scalar<uint32_t>();
        nDisplaced = s.template scalar<uint64_t>();
        nextSweep = s.template scalar<uint64_t>();
    }
    /** @} */

  private:
    /** One tracked fill; fillDone == 0 means the way is free. */
    struct Entry
    {
        uint64_t line = 0;
        uint64_t fillDone = 0;
    };

    Entry *setOf(uint64_t line);
    void sweepIfDue(uint64_t now);

    /** Add the way at entries[@p idx] to the live index. */
    void
    markLive(uint32_t idx)
    {
        livePos[idx] = uint32_t(liveWays.size());
        liveWays.push_back(idx);
    }

    /** Free a live way: clear it and swap-remove it from the index. */
    void
    freeWay(Entry &e)
    {
        e.fillDone = 0;
        uint32_t pos = livePos[size_t(&e - entries.data())];
        uint32_t last = liveWays.back();
        liveWays[pos] = last;
        livePos[last] = pos;
        liveWays.pop_back();
    }

    std::vector<Entry> entries;  ///< sets x numWays, sized once
    /** Indices of the live ways (fillDone != 0), in no order; sized
     *  once, rebuilt by load(). Not serialized. */
    std::vector<uint32_t> liveWays;
    std::vector<uint32_t> livePos;  ///< entry -> slot in liveWays
    Histogram setOccHist{1, Ways + 1};  ///< per-set live-way samples
    uint32_t numWays;            ///< min(capacity, Ways)
    uint32_t setMask;            ///< numSets - 1 (power of two)
    uint32_t peak = 0;
    uint64_t nDisplaced = 0;
    uint64_t sweepPeriod;
    uint64_t nextSweep = 0;
};

} // namespace kilo::mem

