#include "src/mem/hierarchy.hh"

#include "src/util/logging.hh"
#include "src/util/names.hh"

namespace kilo::mem
{

const char *
serviceLevelName(ServiceLevel lvl)
{
    switch (lvl) {
      case ServiceLevel::L1: return "L1";
      case ServiceLevel::L2: return "L2";
      case ServiceLevel::Memory: return "MEM";
    }
    KILO_PANIC("unknown ServiceLevel");
}

MemConfig
MemConfig::l1Only()
{
    MemConfig cfg;
    cfg.name = "L1-2";
    cfg.perfectL1 = true;
    cfg.hasL2 = false;
    return cfg;
}

MemConfig
MemConfig::l2Perfect11()
{
    MemConfig cfg;
    cfg.name = "L2-11";
    cfg.perfectL2 = true;
    cfg.l2Latency = 11;
    return cfg;
}

MemConfig
MemConfig::l2Perfect21()
{
    MemConfig cfg;
    cfg.name = "L2-21";
    cfg.perfectL2 = true;
    cfg.l2Latency = 21;
    return cfg;
}

MemConfig
MemConfig::mem100()
{
    MemConfig cfg;
    cfg.name = "MEM-100";
    cfg.memLatency = 100;
    return cfg;
}

MemConfig
MemConfig::mem400()
{
    MemConfig cfg;
    cfg.name = "MEM-400";
    cfg.memLatency = 400;
    return cfg;
}

MemConfig
MemConfig::mem1000()
{
    MemConfig cfg;
    cfg.name = "MEM-1000";
    cfg.memLatency = 1000;
    return cfg;
}

MemConfig
MemConfig::withL2Size(uint64_t bytes)
{
    MemConfig cfg = mem400();
    cfg.l2Size = bytes;
    cfg.name = "MEM-400/L2-" + std::to_string(bytes / 1024) + "KB";
    return cfg;
}

namespace
{

struct MemPreset
{
    const char *alias;
    MemConfig (*make)();
};

constexpr MemPreset MemPresets[] = {
    {"l1", MemConfig::l1Only},
    {"l2-11", MemConfig::l2Perfect11},
    {"l2-21", MemConfig::l2Perfect21},
    {"mem-100", MemConfig::mem100},
    {"mem-400", MemConfig::mem400},
    {"mem-1000", MemConfig::mem1000},
};

} // anonymous namespace

MemConfig
MemConfig::byName(const std::string &name)
{
    using util::iequals;
    for (const auto &preset : MemPresets) {
        MemConfig cfg = preset.make();
        if (iequals(name, preset.alias) || iequals(name, cfg.name))
            return cfg;
    }
    KILO_FATAL("unknown memory config '%s' (known: l1 l2-11 l2-21 "
               "mem-100 mem-400 mem-1000)", name.c_str());
}

std::vector<std::string>
MemConfig::names()
{
    std::vector<std::string> out;
    for (const auto &preset : MemPresets)
        out.push_back(preset.alias);
    return out;
}

MemoryHierarchy::MemoryHierarchy(const MemConfig &config)
    : cfg(config),
      // Sweeping once per fill latency keeps lazy expiry exact to
      // within one fill lifetime at negligible amortised cost.
      mshrs(cfg.numMshrs, cfg.memLatency)
{
    if (!cfg.perfectL1) {
        CacheGeometry g;
        g.sizeBytes = cfg.l1Size;
        g.assoc = cfg.l1Assoc;
        g.lineBytes = cfg.lineBytes;
        l1 = std::make_unique<SetAssocCache>(g);
    }
    if (cfg.hasL2 && !cfg.perfectL2) {
        CacheGeometry g;
        g.sizeBytes = cfg.l2Size;
        g.assoc = cfg.l2Assoc;
        g.lineBytes = cfg.lineBytes;
        l2 = std::make_unique<SetAssocCache>(g);
    }
}

AccessResult
MemoryHierarchy::access(uint64_t addr, bool is_write, uint64_t now)
{
    ++nAccesses;
    AccessResult res;

    if (cfg.perfectL1) {
        res.latency = cfg.l1Latency;
        res.level = ServiceLevel::L1;
        return res;
    }

    // A line with an in-flight off-chip fill services this access when
    // the fill lands, regardless of what the tag arrays say.
    uint64_t line = lineOf(addr);
    if (uint64_t fill_done = mshrs.lookup(line, now)) {
        ++nMerges;
        res.latency = uint32_t(fill_done - now);
        if (res.latency < cfg.l1Latency)
            res.latency = cfg.l1Latency;
        res.level = ServiceLevel::Memory;
        // The fill reservation keeps the tags exactly as warm as a
        // demand access would, but the line's miss was already
        // charged to the primary access — a merge is a merge, not
        // another L1/L2 miss.
        l1->touch(addr);
        if (l2)
            l2->touch(addr);
        return res;
    }

    bool l1_hit = l1->access(addr);
    if (l1_hit) {
        res.latency = cfg.l1Latency;
        res.level = ServiceLevel::L1;
        return res;
    }
    ++nL1Misses;

    if (!cfg.hasL2) {
        // Unreachable with Table 1 configs (L1-2 is perfect), but a
        // two-level-less hierarchy goes straight to memory. There is
        // no L2 to miss in, so this is an L1-to-memory fill, not an
        // L2 miss.
        ++nMemFills;
        res.latency = cfg.memLatency;
        res.level = ServiceLevel::Memory;
        mshrs.allocate(line, now + cfg.memLatency, now);
        return res;
    }

    bool l2_hit = cfg.perfectL2 ? true : l2->access(addr);
    if (l2_hit) {
        res.latency = cfg.l2Latency;
        res.level = ServiceLevel::L2;
        return res;
    }
    ++nL2Misses;
    ++nMemFills;

    res.latency = cfg.memLatency;
    res.level = ServiceLevel::Memory;
    mshrs.allocate(line, now + cfg.memLatency, now);
    (void)is_write; // write-allocate; store latency is hidden by the
                    // write buffer at the core level.
    return res;
}

bool
MemoryHierarchy::wouldBlock(uint64_t addr, uint64_t now)
{
    if (!wouldBlockProbe(addr, now))
        return false;
    ++nMshrStalls;
    return true;
}

bool
MemoryHierarchy::wouldBlockProbe(uint64_t addr, uint64_t now)
{
    if (!cfg.mshrStall || cfg.perfectL1)
        return false;

    // Only an access that must start a *new* off-chip fill can need a
    // free MSHR way: merges ride the existing entry, and on-chip hits
    // never reach the file. Probes here are read-only (no LRU touch,
    // no install, no counters) so a false answer followed by access()
    // is indistinguishable from access() alone.
    uint64_t line = lineOf(addr);
    if (mshrs.lookup(line, now) != 0)
        return false; // merges into the in-flight fill
    if (l1->probe(addr))
        return false;
    if (cfg.hasL2 && (cfg.perfectL2 || l2->probe(addr)))
        return false;
    return mshrs.setFull(line, now);
}

void
MemoryHierarchy::prewarm(uint64_t base, uint64_t bytes)
{
    // A region whose end wraps past 2^64 installs nothing.
    if (bytes == 0 || base + bytes < base)
        return;
    const uint64_t lines = (bytes - 1) / cfg.lineBytes + 1;
    if (l1)
        l1->accessLines(base, lines);
    if (l2)
        l2->accessLines(base, lines);
}

void
MemoryHierarchy::warmAccess(uint64_t addr)
{
    if (cfg.perfectL1)
        return;
    // Mirror access()'s tag evolution: the L2 only sees the line when
    // the L1 misses. touch() installs on absence without counting.
    bool l1_hit = l1->probe(addr);
    l1->touch(addr);
    if (!l1_hit && l2)
        l2->touch(addr);
}

void
MemoryHierarchy::registerStats(stats::Registry &reg)
{
    using stats::Row;

    // The JSONL row block, in schema order.
    reg.counter("mem_accesses", "Data accesses into the hierarchy",
                &nAccesses, Row::Yes);
    reg.counter("l2_misses", "Misses of an existing L2", &nL2Misses,
                Row::Yes);
    reg.gauge("l2_miss_ratio", "L2 misses per hierarchy access",
              [this] { return l2MissRatio(); }, Row::Yes);
    reg.counter("mem_fills", "Off-chip line fills started", &nMemFills,
                Row::Yes);
    reg.counter("mshr_merges",
                "Accesses merged into an in-flight fill", &nMerges,
                Row::Yes);
    reg.gaugeInt("mshr_peak", "Peak MSHR occupancy (measured region)",
                 [this] { return uint64_t(mshrs.peakOccupancy()); },
                 Row::Yes);
    reg.gaugeInt("mshr_set_p50",
                 "Median per-set live fills at allocation",
                 [this] {
                     return mshrs.setOccupancy().percentile(0.50);
                 },
                 Row::Yes);
    reg.gaugeInt("mshr_set_p99",
                 "99th-percentile per-set live fills at allocation",
                 [this] {
                     return mshrs.setOccupancy().percentile(0.99);
                 },
                 Row::Yes);
    reg.gaugeInt("mshr_set_max",
                 "Maximum per-set live fills at allocation",
                 [this] { return mshrs.setOccupancy().maxSample(); },
                 Row::Yes);

    // Diagnostics outside the stable row schema.
    reg.counter("l1_misses", "L1 misses", &nL1Misses);
    reg.counter("mshr_stalls",
                "Issue attempts back-pressured by a full MSHR set "
                "(MemConfig::mshrStall structural hazard)",
                &nMshrStalls);
    reg.gaugeInt("mshr_displacements",
                 "Live fills displaced by a full MSHR set "
                 "(nonzero means merges were lost)",
                 [this] { return mshrs.displacements(); });
    // Registry reset and MshrFile::resetPeak (via resetStats) both
    // reset this histogram in place; the overlap is idempotent.
    reg.histogram("mshr_set_occupancy",
                  "Per-set live-fill occupancy sampled at each fill "
                  "allocation (MLP clustering)",
                  &mshrs.setOccupancy());
}

void
MemoryHierarchy::resetStats()
{
    nAccesses = 0;
    nL1Misses = 0;
    nL2Misses = 0;
    nMemFills = 0;
    nMerges = 0;
    nMshrStalls = 0;
    mshrs.resetPeak();
    if (l1)
        l1->resetStats();
    if (l2)
        l2->resetStats();
}

} // namespace kilo::mem
