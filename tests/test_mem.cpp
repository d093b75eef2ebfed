/**
 * @file
 * Unit tests for the cache model, the fixed-capacity MSHR file and
 * the two-level hierarchy, including MSHR-style miss merging,
 * bounded-occupancy behaviour under streaming misses, miss-statistic
 * accounting and functional pre-warming.
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <vector>

#include "src/ckpt/serial.hh"
#include "src/mem/cache.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/mshr.hh"
#include "src/util/rng.hh"

using namespace kilo;
using namespace kilo::mem;

namespace
{

CacheGeometry
smallGeom()
{
    CacheGeometry g;
    g.sizeBytes = 1024; // 16 lines
    g.assoc = 2;        // 8 sets
    g.lineBytes = 64;
    return g;
}

/**
 * The MSHR file as it was before the live-way index: the expiry sweep
 * scans every entry. Kept as the oracle of the randomized equivalence
 * test below; save() writes the same KILOCKPT layout.
 */
class FullScanMshrFile
{
  public:
    FullScanMshrFile(uint32_t capacity, uint64_t sweep_period)
        : sweepPeriod(sweep_period ? sweep_period : 1)
    {
        numWays =
            capacity < MshrFile::Ways ? capacity : MshrFile::Ways;
        uint32_t sets =
            std::bit_ceil((capacity + numWays - 1) / numWays);
        setMask = sets - 1;
        entries.resize(size_t(sets) * numWays);
    }

    uint64_t
    lookup(uint64_t line, uint64_t now)
    {
        sweepIfDue(now);
        Entry *set = setOf(line);
        uint64_t fill_done = 0;
        for (uint32_t w = 0; w < numWays; ++w) {
            Entry &e = set[w];
            if (e.fillDone == 0)
                continue;
            if (e.fillDone <= now) {
                freeWay(e);
                continue;
            }
            if (e.line == line)
                fill_done = e.fillDone;
        }
        return fill_done;
    }

    bool
    setFull(uint64_t line, uint64_t now)
    {
        sweepIfDue(now);
        Entry *set = setOf(line);
        uint32_t live = 0;
        for (uint32_t w = 0; w < numWays; ++w) {
            Entry &e = set[w];
            if (e.fillDone != 0 && e.fillDone <= now)
                freeWay(e);
            if (e.fillDone != 0)
                ++live;
        }
        return live == numWays;
    }

    void
    allocate(uint64_t line, uint64_t fill_done, uint64_t now)
    {
        sweepIfDue(now);
        Entry *set = setOf(line);
        Entry *victim = nullptr;
        Entry *soonest = &set[0];
        uint32_t set_live = 0;
        for (uint32_t w = 0; w < numWays; ++w) {
            Entry &e = set[w];
            if (e.fillDone != 0 && e.fillDone <= now)
                freeWay(e);
            if (e.fillDone == 0) {
                victim = &e;
            } else {
                ++set_live;
                if (e.fillDone < soonest->fillDone ||
                    soonest->fillDone == 0) {
                    soonest = &e;
                }
            }
        }
        if (victim == nullptr) {
            ++nDisplaced;
            freeWay(*soonest);
            victim = soonest;
            --set_live;
        }
        victim->line = line;
        victim->fillDone = fill_done;
        ++liveCount;
        if (liveCount > peak)
            peak = liveCount;
        setOccHist.sample(set_live + 1);
    }

    void
    resetPeak()
    {
        peak = liveCount;
        nDisplaced = 0;
        setOccHist.reset();
    }

    void
    save(ckpt::Sink &s) const
    {
        s.podVector(entries);
        setOccHist.save(s);
        s.scalar<uint32_t>(liveCount);
        s.scalar<uint32_t>(peak);
        s.scalar<uint64_t>(nDisplaced);
        s.scalar<uint64_t>(nextSweep);
    }

    uint32_t occupancy() const { return liveCount; }
    uint32_t peakOccupancy() const { return peak; }
    uint64_t displacements() const { return nDisplaced; }

  private:
    struct Entry
    {
        uint64_t line = 0;
        uint64_t fillDone = 0;
    };

    Entry *
    setOf(uint64_t line)
    {
        return &entries[size_t(uint32_t(line) & setMask) * numWays];
    }

    void
    sweepIfDue(uint64_t now)
    {
        if (now < nextSweep)
            return;
        for (Entry &e : entries) {
            if (e.fillDone != 0 && e.fillDone <= now)
                freeWay(e);
        }
        nextSweep = now + sweepPeriod;
    }

    void
    freeWay(Entry &e)
    {
        e.fillDone = 0;
        --liveCount;
    }

    std::vector<Entry> entries;
    Histogram setOccHist{1, MshrFile::Ways + 1};
    uint32_t numWays;
    uint32_t setMask;
    uint32_t liveCount = 0;
    uint32_t peak = 0;
    uint64_t nDisplaced = 0;
    uint64_t sweepPeriod;
    uint64_t nextSweep = 0;
};

template <typename File>
std::vector<uint8_t>
checkpointOf(const File &f)
{
    ckpt::Sink s;
    f.save(s);
    return s.take();
}

} // anonymous namespace

// ---------------------------------------------------- SetAssocCache

TEST(Cache, GeometryDerivation)
{
    SetAssocCache c(smallGeom());
    EXPECT_EQ(c.numSets(), 8u);
    EXPECT_EQ(c.numWays(), 2u);
    EXPECT_EQ(c.lineSize(), 64u);
}

TEST(Cache, ColdMissThenHit)
{
    SetAssocCache c(smallGeom());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1038)); // same line
    EXPECT_EQ(c.accesses(), 3u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, ProbeDoesNotAllocate)
{
    SetAssocCache c(smallGeom());
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_FALSE(c.access(0x2000));
    EXPECT_TRUE(c.probe(0x2000));
    EXPECT_EQ(c.accesses(), 1u); // probe not counted
}

TEST(Cache, LruEviction)
{
    SetAssocCache c(smallGeom());
    // Three lines mapping to the same set (set stride = 8 lines).
    uint64_t a = 0;
    uint64_t b = 8 * 64;
    uint64_t d = 16 * 64;
    c.access(a);
    c.access(b);
    c.access(a);     // a most recent
    c.access(d);     // evicts b (LRU)
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, InvalidateAll)
{
    SetAssocCache c(smallGeom());
    c.access(0x40);
    c.invalidateAll();
    EXPECT_FALSE(c.probe(0x40));
}

TEST(Cache, MissRatio)
{
    SetAssocCache c(smallGeom());
    c.access(0x0);
    c.access(0x0);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.5);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.0);
}

TEST(Cache, TouchEvolvesTagsWithoutCountingStats)
{
    SetAssocCache c(smallGeom());
    // Touch of an absent line installs it but counts nothing: the
    // MSHR merge path charges the miss to the primary access only.
    c.touch(0x3000);
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.probe(0x3000));
    // Touch of a present line refreshes LRU exactly like access():
    // a, b resident; touching a makes b the LRU victim.
    uint64_t a = 0, b = 8 * 64, d = 16 * 64; // one set, 2 ways
    c.access(a);
    c.access(b); // LRU order: a, b
    c.touch(a);  // LRU order: b, a
    c.access(d); // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
}

TEST(Cache, NonPow2SetCountRoundsDownInsteadOfPanicking)
{
    // 384 KB / 64 B / 8-way = 768 sets: not a power of two. The old
    // model KILO_ASSERTed mid-sweep; now it indexes with the largest
    // power of two that fits.
    CacheGeometry g;
    g.sizeBytes = 384 * 1024;
    g.assoc = 8;
    g.lineBytes = 64;
    SetAssocCache c(g);
    EXPECT_EQ(c.numSets(), 512u);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
}

// -------------------------------------------------------- MshrFile

TEST(Mshr, LookupTracksLiveFillsOnly)
{
    MshrFile f(64, 400);
    EXPECT_EQ(f.lookup(7, 0), 0u);
    f.allocate(7, 400, 0);
    EXPECT_EQ(f.lookup(7, 100), 400u);
    EXPECT_EQ(f.occupancy(), 1u);
    // At the fill's landing cycle the entry expires and is reclaimed.
    EXPECT_EQ(f.lookup(7, 400), 0u);
    EXPECT_EQ(f.occupancy(), 0u);
}

TEST(Mshr, CapacityIsFixedAndRoundedToWholeSets)
{
    MshrFile f(100, 400); // 100/8 -> 13 sets -> 16 sets x 8 ways
    EXPECT_EQ(f.capacity(), 128u);
}

TEST(Mshr, TinyCapacityIsExact)
{
    // A deliberately small file (capacity-sensitivity sweeps) must
    // really be that small: one entry, not a rounded-up 8-way set.
    MshrFile tiny(1, 1000000);
    EXPECT_EQ(tiny.capacity(), 1u);
    tiny.allocate(10, 5000, 0);
    EXPECT_EQ(tiny.lookup(10, 100), 5000u);
    tiny.allocate(11, 5000, 0); // displaces the only entry
    EXPECT_EQ(tiny.displacements(), 1u);
    EXPECT_EQ(tiny.lookup(10, 100), 0u);
    EXPECT_EQ(tiny.lookup(11, 100), 5000u);
    EXPECT_EQ(tiny.occupancy(), 1u);
}

TEST(Mshr, SetOccupancyHistogramSamplesEveryAllocation)
{
    MshrFile f(64, 400); // 8 sets x 8 ways
    // Three fills landing in the same set (stride = set count): the
    // per-set occupancy samples are 1, 2, 3.
    f.allocate(8, 400, 0);
    f.allocate(16, 400, 0);
    f.allocate(24, 400, 0);
    // One fill alone in a different set: sample 1.
    f.allocate(3, 400, 0);
    const Histogram &h = f.setOccupancy();
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.bucketCount(1), 2u); // two allocations saw 1 live way
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.maxSample(), 3u);
    EXPECT_EQ(h.percentile(0.50), 1u);
    EXPECT_EQ(h.percentile(0.99), 3u);
    // resetPeak (end of warm-up) restarts the distribution.
    f.resetPeak();
    EXPECT_EQ(f.setOccupancy().samples(), 0u);
    EXPECT_EQ(f.setOccupancy().maxSample(), 0u);
}

TEST(Hierarchy, SetOccupancySurfacesThroughHierarchy)
{
    MemoryHierarchy mem(MemConfig::mem400());
    // 64 distinct-line cold misses, all in flight together.
    for (uint64_t i = 0; i < 64; ++i)
        mem.access(i * 64, false, 0);
    const Histogram &h = mem.mshrSetOccupancy();
    EXPECT_EQ(h.samples(), 64u);
    EXPECT_GE(h.maxSample(), 1u);
    EXPECT_GE(h.percentile(0.99), h.percentile(0.50));
    mem.resetStats();
    EXPECT_EQ(mem.mshrSetOccupancy().samples(), 0u);
}

TEST(Mshr, LookupReclaimsExpiredNeighboursInProbedSet)
{
    MshrFile f(8, 1000000); // one set, sweep far away
    f.allocate(1 * 16, 100, 0);
    f.allocate(2 * 16, 200, 0);
    f.allocate(3 * 16, 5000, 0);
    EXPECT_EQ(f.occupancy(), 3u);
    // Probing any line in the set at t=300 reclaims the two landed
    // fills even though neither is the probed line.
    EXPECT_EQ(f.lookup(3 * 16, 300), 5000u);
    EXPECT_EQ(f.occupancy(), 1u);
}

TEST(Mshr, CompactScanReclaimsNeverRevisitedLines)
{
    // The regression the old unordered_map tracker failed: entries
    // for lines that are never touched again must still be reclaimed
    // once their fills land.
    MshrFile f(256, 100);
    for (uint64_t line = 0; line < 64; ++line)
        f.allocate(line, 100 + line, line);
    EXPECT_EQ(f.occupancy(), 64u);
    // Far in the future, any operation past the sweep deadline
    // reclaims everything — including lines never looked up again.
    EXPECT_EQ(f.lookup(9999, 100000), 0u);
    EXPECT_EQ(f.occupancy(), 0u);
    EXPECT_EQ(f.peakOccupancy(), 64u);
}

TEST(Mshr, DisplacementOnlyUnderLiveSetPressure)
{
    MshrFile f(8, 1000000); // one set of 8 ways, sweep far away
    for (uint64_t i = 0; i < 8; ++i)
        f.allocate(i * 16, 5000, 0); // same set (index bits equal)
    EXPECT_EQ(f.displacements(), 0u);
    f.allocate(9 * 16, 5000, 0); // ninth live fill in the set
    EXPECT_EQ(f.displacements(), 1u);
    EXPECT_EQ(f.occupancy(), 8u); // still bounded by capacity
}

TEST(Mshr, LiveWayIndexMatchesFullScanRandomized)
{
    // Random lookups, set probes, allocations (including
    // displacements), peak resets and mid-run save/load against the
    // full-scan oracle. Every observable and every checkpoint byte
    // must agree after every operation.
    struct Config
    {
        uint32_t capacity;
        uint64_t sweepPeriod;
        uint64_t lineRange;
    };
    const Config configs[] = {
        {1, 1, 4},        {1, 50, 3},      {3, 7, 8},
        {8, 40, 64},      {8, 1000000, 40}, {64, 100, 256},
        {100, 13, 1000},  {4096, 400, 20000},
    };
    for (const Config &cfg : configs) {
        SCOPED_TRACE("capacity " + std::to_string(cfg.capacity) +
                     " sweep " + std::to_string(cfg.sweepPeriod));
        Rng rng(cfg.capacity * 7919 + cfg.sweepPeriod);
        auto f = std::make_unique<MshrFile>(cfg.capacity,
                                            cfg.sweepPeriod);
        FullScanMshrFile ref(cfg.capacity, cfg.sweepPeriod);
        uint64_t now = 0, displaced = 0;
        for (int step = 0; step < 20000; ++step) {
            // Mostly small steps, sometimes a jump past the sweep.
            if (rng.range(4) == 0)
                now += rng.range(3 * cfg.sweepPeriod / 2 + 2);
            else
                now += rng.range(3);
            uint64_t line = rng.range(cfg.lineRange);
            switch (rng.range(16)) {
              case 0:
                ASSERT_EQ(f->setFull(line, now),
                          ref.setFull(line, now));
                break;
              case 1:
                if (rng.range(64) == 0) {
                    f->resetPeak();
                    ref.resetPeak();
                }
                break;
              case 2:
                if (rng.range(32) == 0) {
                    // Restore a checkpoint into a fresh file.
                    auto blob = checkpointOf(*f);
                    ASSERT_EQ(blob, checkpointOf(ref));
                    f = std::make_unique<MshrFile>(cfg.capacity,
                                                   cfg.sweepPeriod);
                    ckpt::Source src(blob);
                    f->load(src);
                    ASSERT_TRUE(src.atEnd());
                }
                break;
              case 3:
              case 4:
              case 5:
              case 6:
              case 7: {
                uint64_t done = now + 1 + rng.range(600);
                uint64_t before = ref.displacements();
                f->allocate(line, done, now);
                ref.allocate(line, done, now);
                displaced += ref.displacements() - before;
                break;
              }
              default:
                ASSERT_EQ(f->lookup(line, now), ref.lookup(line, now));
                break;
            }
            ASSERT_EQ(f->occupancy(), ref.occupancy())
                << "step " << step;
            ASSERT_EQ(f->peakOccupancy(), ref.peakOccupancy());
            ASSERT_EQ(f->displacements(), ref.displacements());
        }
        EXPECT_EQ(checkpointOf(*f), checkpointOf(ref));
        if (cfg.capacity <= 8) {
            EXPECT_GT(displaced, 0u); // the displacement path ran
        }
    }
}

// ------------------------------------------------- MemoryHierarchy

TEST(Hierarchy, PerfectL1AlwaysFast)
{
    MemoryHierarchy m(MemConfig::l1Only());
    for (uint64_t a = 0; a < 100 * 64; a += 64) {
        auto r = m.access(a, false, 0);
        EXPECT_EQ(r.latency, 2u);
        EXPECT_EQ(r.level, ServiceLevel::L1);
        EXPECT_FALSE(r.offChip());
    }
}

TEST(Hierarchy, PerfectL2ServicesL1Misses)
{
    MemoryHierarchy m(MemConfig::l2Perfect11());
    auto r1 = m.access(0x10000, false, 0);
    EXPECT_EQ(r1.level, ServiceLevel::L2);
    EXPECT_EQ(r1.latency, 11u);
    auto r2 = m.access(0x10000, false, 20);
    EXPECT_EQ(r2.level, ServiceLevel::L1);
    EXPECT_EQ(r2.latency, 2u);
}

TEST(Hierarchy, L2Perfect21Latency)
{
    MemoryHierarchy m(MemConfig::l2Perfect21());
    EXPECT_EQ(m.access(0x10000, false, 0).latency, 21u);
}

TEST(Hierarchy, ColdMissGoesToMemory)
{
    MemoryHierarchy m(MemConfig::mem400());
    auto r = m.access(0x500000, false, 0);
    EXPECT_EQ(r.level, ServiceLevel::Memory);
    EXPECT_EQ(r.latency, 400u);
    EXPECT_TRUE(r.offChip());
}

TEST(Hierarchy, MemLatencyPresets)
{
    EXPECT_EQ(MemoryHierarchy(MemConfig::mem100())
                  .access(0x0, false, 0).latency, 100u);
    EXPECT_EQ(MemoryHierarchy(MemConfig::mem1000())
                  .access(0x0, false, 0).latency, 1000u);
}

TEST(Hierarchy, MshrMergeCompletesWithPrimary)
{
    MemoryHierarchy m(MemConfig::mem400());
    auto first = m.access(0x700000, false, 100);
    EXPECT_EQ(first.latency, 400u);
    // Second access to the same line 150 cycles later merges.
    auto second = m.access(0x700008, false, 250);
    EXPECT_EQ(second.level, ServiceLevel::Memory);
    EXPECT_EQ(second.latency, 250u); // completes at cycle 500
    EXPECT_EQ(m.mshrMerges(), 1u);
}

TEST(Hierarchy, MergedLatencyFloorsAtL1)
{
    MemoryHierarchy m(MemConfig::mem400());
    m.access(0x700000, false, 0);
    auto late = m.access(0x700000, false, 399);
    EXPECT_GE(late.latency, 2u);
}

TEST(Hierarchy, AfterFillLineHitsL1)
{
    MemoryHierarchy m(MemConfig::mem400());
    m.access(0x700000, false, 0);
    auto r = m.access(0x700000, false, 1000);
    EXPECT_EQ(r.level, ServiceLevel::L1);
}

TEST(Hierarchy, HitAfterMissInL2)
{
    MemoryHierarchy m(MemConfig::mem400());
    m.access(0x700000, false, 0);
    // Evict from L1 (32KB, 4-way, 128 sets): lines 0x700000 + k*8KB
    // map to the same L1 set.
    for (int k = 1; k <= 8; ++k)
        m.access(0x700000 + uint64_t(k) * 32 * 1024, false, 1000 + k);
    auto r = m.access(0x700000, false, 5000);
    EXPECT_EQ(r.level, ServiceLevel::L2);
    EXPECT_EQ(r.latency, 11u);
}

TEST(Hierarchy, PrewarmInstallsLines)
{
    MemoryHierarchy m(MemConfig::mem400());
    m.prewarm(0x100000, 64 * 1024);
    m.resetStats();
    auto r = m.access(0x100040, false, 0);
    EXPECT_NE(r.level, ServiceLevel::Memory);
    EXPECT_EQ(m.l2Misses(), 0u);
}

TEST(Hierarchy, PrewarmRespectsCapacityLru)
{
    MemConfig cfg = MemConfig::mem400();
    cfg.l2Size = 64 * 1024;
    MemoryHierarchy m(cfg);
    m.prewarm(0x100000, 1024 * 1024); // 16x the L2
    // The head of the region was evicted by the tail.
    auto head = m.access(0x100000, false, 0);
    EXPECT_EQ(head.level, ServiceLevel::Memory);
    // The tail survives.
    auto tail = m.access(0x100000 + 1024 * 1024 - 64, false, 0);
    EXPECT_NE(tail.level, ServiceLevel::Memory);
}

TEST(Hierarchy, StoreInstallsLine)
{
    MemoryHierarchy m(MemConfig::mem400());
    m.access(0x900000, true, 0);
    auto r = m.access(0x900000, false, 1000);
    EXPECT_EQ(r.level, ServiceLevel::L1);
}

TEST(Hierarchy, StatsAccumulateAndReset)
{
    MemoryHierarchy m(MemConfig::mem400());
    m.access(0x0, false, 0);
    m.access(0x40000000, false, 0);
    EXPECT_EQ(m.accesses(), 2u);
    EXPECT_EQ(m.l2Misses(), 2u);
    EXPECT_DOUBLE_EQ(m.l2MissRatio(), 1.0);
    m.resetStats();
    EXPECT_EQ(m.accesses(), 0u);
}

TEST(Hierarchy, L2SizeSweepPresetNames)
{
    auto cfg = MemConfig::withL2Size(2 * 1024 * 1024);
    EXPECT_EQ(cfg.l2Size, 2u * 1024 * 1024);
    EXPECT_NE(cfg.name.find("2048KB"), std::string::npos);
}

TEST(Hierarchy, SmallerL2MissesMore)
{
    MemConfig small = MemConfig::withL2Size(64 * 1024);
    MemConfig big = MemConfig::withL2Size(4 * 1024 * 1024);
    MemoryHierarchy ms(small), mb(big);
    // 1MB working set, two passes; time advances so fills land.
    uint64_t now = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t a = 0; a < (1u << 20); a += 64) {
            ms.access(a, false, now);
            mb.access(a, false, now);
            now += 500;
        }
    }
    EXPECT_GT(ms.l2Misses(), mb.l2Misses());
}

TEST(Hierarchy, StreamingMissesKeepMshrOccupancyBounded)
{
    // Regression for the in-flight-fill leak: the old unordered_map
    // only erased an expired entry when the *same line* was
    // re-accessed, so a streaming workload accumulated one entry per
    // missed line forever. A 1M-distinct-line stream must stay
    // within the fixed MSHR capacity at every point.
    MemoryHierarchy m(MemConfig::mem400());
    uint64_t now = 0;
    for (uint64_t line = 0; line < 1000000; ++line) {
        m.access(line * 64, false, now);
        now += 2;
        ASSERT_LE(m.mshrOccupancy(), m.mshrCapacity());
    }
    EXPECT_LE(m.mshrPeakOccupancy(), m.mshrCapacity());
    // At 2 cycles/access only ~200 fills are ever in flight at once;
    // the default file absorbs the stream without displacing any.
    EXPECT_EQ(m.mshrDisplacements(), 0u);
    EXPECT_EQ(m.l1Misses(), 1000000u);
}

TEST(Hierarchy, NoL2MissesCountAsMemoryFillsNotL2Misses)
{
    // An L1-only (but imperfect) hierarchy has no L2 to miss in; the
    // old accounting bumped nL2Misses anyway and inflated
    // l2MissRatio().
    MemConfig cfg = MemConfig::mem400();
    cfg.hasL2 = false;
    MemoryHierarchy m(cfg);
    auto r = m.access(0x500000, false, 0);
    EXPECT_EQ(r.level, ServiceLevel::Memory);
    EXPECT_EQ(r.latency, 400u);
    EXPECT_EQ(m.l1Misses(), 1u);
    EXPECT_EQ(m.l2Misses(), 0u);
    EXPECT_EQ(m.memFills(), 1u);
    EXPECT_DOUBLE_EQ(m.l2MissRatio(), 0.0);
    // Merging into the in-flight fill still works without an L2.
    auto merged = m.access(0x500008, false, 100);
    EXPECT_EQ(merged.latency, 300u);
    EXPECT_EQ(m.mshrMerges(), 1u);
    EXPECT_EQ(m.memFills(), 1u);
}

TEST(Hierarchy, MergedAccessesCountAsMergesOnly)
{
    // Hand-computed trace against MEM-400 (L1 32K/4w, L2 512K/8w):
    //   t=0    load 0x700000  cold miss       -> L1 miss, L2 miss,
    //                                            fill lands at t=400
    //   t=100  load 0x700008  same line       -> merge, latency 300
    //   t=200  load 0x700040  next line, cold -> L1 miss, L2 miss
    //   t=300  load 0x700010  first line      -> merge, latency 100
    //   t=1000 load 0x700000  after the fill  -> L1 hit
    // The old accounting double-charged each merge as one more L1
    // miss AND one more L2 miss.
    MemoryHierarchy m(MemConfig::mem400());

    auto a = m.access(0x700000, false, 0);
    EXPECT_EQ(a.latency, 400u);
    auto b = m.access(0x700008, false, 100);
    EXPECT_EQ(b.latency, 300u);
    auto c = m.access(0x700040, false, 200);
    EXPECT_EQ(c.latency, 400u);
    auto d = m.access(0x700010, false, 300);
    EXPECT_EQ(d.latency, 100u);
    auto e = m.access(0x700000, false, 1000);
    EXPECT_EQ(e.level, ServiceLevel::L1);

    EXPECT_EQ(m.accesses(), 5u);
    EXPECT_EQ(m.l1Misses(), 2u);
    EXPECT_EQ(m.l2Misses(), 2u);
    EXPECT_EQ(m.memFills(), 2u);
    EXPECT_EQ(m.mshrMerges(), 2u);
    EXPECT_DOUBLE_EQ(m.l2MissRatio(), 2.0 / 5.0);
}

TEST(Hierarchy, NonPow2L2SweepPointConstructs)
{
    // 384 KB was a mid-sweep panic: 384K/64/8 = 768 sets tripped
    // KILO_ASSERT(isPow2(sets)). It now rounds down with a warning
    // and simulates.
    MemoryHierarchy m(MemConfig::withL2Size(384 * 1024));
    auto r = m.access(0x100000, false, 0);
    EXPECT_EQ(r.level, ServiceLevel::Memory);
    auto again = m.access(0x100000, false, 1000);
    EXPECT_EQ(again.level, ServiceLevel::L1);
}

TEST(Hierarchy, PrewarmDoesNotPerturbStatsAfterReset)
{
    // Warm-up hygiene across all six Table-1 presets: prewarm plus
    // resetStats must leave every hierarchy- and MSHR-level counter
    // at zero, so the measured region starts clean.
    const MemConfig presets[] = {
        MemConfig::l1Only(),      MemConfig::l2Perfect11(),
        MemConfig::l2Perfect21(), MemConfig::mem100(),
        MemConfig::mem400(),      MemConfig::mem1000(),
    };
    for (const MemConfig &cfg : presets) {
        MemoryHierarchy m(cfg);
        m.prewarm(0x100000, 256 * 1024);
        m.resetStats();
        EXPECT_EQ(m.accesses(), 0u) << cfg.name;
        EXPECT_EQ(m.l1Misses(), 0u) << cfg.name;
        EXPECT_EQ(m.l2Misses(), 0u) << cfg.name;
        EXPECT_EQ(m.memFills(), 0u) << cfg.name;
        EXPECT_EQ(m.mshrMerges(), 0u) << cfg.name;
        EXPECT_EQ(m.mshrOccupancy(), 0u) << cfg.name;
        EXPECT_EQ(m.mshrPeakOccupancy(), 0u) << cfg.name;
        EXPECT_EQ(m.mshrDisplacements(), 0u) << cfg.name;
    }
}

TEST(Hierarchy, DefaultMshrCapacityIsGenerous)
{
    MemConfig cfg;
    EXPECT_EQ(cfg.numMshrs, 4096u);
    MemoryHierarchy m(MemConfig::mem400());
    EXPECT_GE(m.mshrCapacity(), cfg.numMshrs);
}

TEST(Hierarchy, ServiceLevelNames)
{
    EXPECT_STREQ(serviceLevelName(ServiceLevel::L1), "L1");
    EXPECT_STREQ(serviceLevelName(ServiceLevel::L2), "L2");
    EXPECT_STREQ(serviceLevelName(ServiceLevel::Memory), "MEM");
}

TEST(Hierarchy, Table1ConfigNames)
{
    EXPECT_EQ(MemConfig::l1Only().name, "L1-2");
    EXPECT_EQ(MemConfig::l2Perfect11().name, "L2-11");
    EXPECT_EQ(MemConfig::l2Perfect21().name, "L2-21");
    EXPECT_EQ(MemConfig::mem100().name, "MEM-100");
    EXPECT_EQ(MemConfig::mem400().name, "MEM-400");
    EXPECT_EQ(MemConfig::mem1000().name, "MEM-1000");
}

// --------------------------- finite MSHRs as a structural hazard

TEST(MshrStall, WouldBlockOnlyWhenSetIsFullOfLiveFills)
{
    // 8 entries at Ways=8 -> one set: easy to saturate exactly.
    MemConfig cfg = MemConfig::mem400();
    cfg.numMshrs = 8;
    cfg.mshrStall = true;
    MemoryHierarchy m(cfg);

    uint64_t now = 0;
    // Fill every way with a distinct off-chip miss. Large strides
    // dodge both caches so each access starts a real fill.
    auto addr_of = [](uint64_t i) { return 0x40000000ull + (i << 20); };
    for (uint64_t i = 0; i < 8; ++i) {
        EXPECT_FALSE(m.wouldBlock(addr_of(i), now));
        auto res = m.access(addr_of(i), false, now);
        EXPECT_EQ(res.level, ServiceLevel::Memory);
    }
    EXPECT_EQ(m.mshrOccupancy(), 8u);

    // A ninth distinct line is refused ...
    EXPECT_TRUE(m.wouldBlock(addr_of(8), now));
    // ... but a merge into an in-flight fill is not ...
    EXPECT_FALSE(m.wouldBlock(addr_of(0), now));
    // ... and neither is a line the caches already hold.
    m.prewarm(0x1000, 64);
    EXPECT_FALSE(m.wouldBlock(0x1000, now));

    // Once the fills land, the set drains and the access proceeds.
    now += cfg.memLatency + 1;
    EXPECT_FALSE(m.wouldBlock(addr_of(8), now));
    EXPECT_EQ(m.access(addr_of(8), false, now).level,
              ServiceLevel::Memory);

    // Back-pressure was counted, displacement never happened.
    EXPECT_EQ(m.mshrStalls(), 1u);
    EXPECT_EQ(m.mshrDisplacements(), 0u);
}

TEST(MshrStall, OffByDefaultAndNeverBlocksWhenDisabled)
{
    MemConfig cfg = MemConfig::mem400();
    EXPECT_FALSE(cfg.mshrStall);
    cfg.numMshrs = 8;
    MemoryHierarchy m(cfg);
    uint64_t now = 0;
    for (uint64_t i = 0; i < 32; ++i) {
        EXPECT_FALSE(m.wouldBlock(0x40000000ull + (i << 20), now));
        m.access(0x40000000ull + (i << 20), false, now);
    }
    EXPECT_EQ(m.mshrStalls(), 0u);
    // The displacement model still runs when stalling is off.
    EXPECT_GT(m.mshrDisplacements(), 0u);
}

TEST(MshrStall, ProbeDoesNotPerturbTagOrStatState)
{
    MemConfig cfg = MemConfig::mem400();
    cfg.numMshrs = 8;
    cfg.mshrStall = true;
    MemoryHierarchy a(cfg), b(cfg);
    uint64_t now = 0;
    // b sees a wouldBlock probe before every access, a never does;
    // the access streams must behave identically.
    for (uint64_t i = 0; i < 5000; ++i) {
        uint64_t addr = (i * 2654435761u) & 0x3fffffc0u;
        (void)b.wouldBlock(addr, now);
        auto ra = a.access(addr, false, now);
        auto rb = b.access(addr, false, now);
        ASSERT_EQ(ra.latency, rb.latency) << "access " << i;
        ASSERT_EQ(ra.level, rb.level) << "access " << i;
        now += 3;
    }
    EXPECT_EQ(a.accesses(), b.accesses());
    EXPECT_EQ(a.l1Misses(), b.l1Misses());
    EXPECT_EQ(a.l2Misses(), b.l2Misses());
    EXPECT_EQ(a.memFills(), b.memFills());
    EXPECT_EQ(a.mshrMerges(), b.mshrMerges());
}
