#include "src/mem/mshr.hh"

#include <bit>

#include "src/util/logging.hh"

namespace kilo::mem
{

MshrFile::MshrFile(uint32_t capacity, uint64_t sweep_period)
    : sweepPeriod(sweep_period ? sweep_period : 1)
{
    KILO_ASSERT(capacity > 0, "MSHR file needs at least one entry");
    // A file smaller than one full set narrows the ways instead of
    // silently rounding up, so deliberately tiny configurations
    // (capacity-sensitivity sweeps) really are that small.
    numWays = capacity < Ways ? capacity : Ways;
    uint32_t sets = std::bit_ceil((capacity + numWays - 1) / numWays);
    setMask = sets - 1;
    entries.resize(size_t(sets) * numWays);
    liveWays.reserve(entries.size());
    livePos.resize(entries.size());
}

MshrFile::Entry *
MshrFile::setOf(uint64_t line)
{
    return &entries[size_t(uint32_t(line) & setMask) * numWays];
}

void
MshrFile::sweepIfDue(uint64_t now)
{
    if (now < nextSweep)
        return;
    // Backwards, so the swap-remove in freeWay only ever moves an
    // already-visited way into the current slot.
    for (size_t i = liveWays.size(); i-- > 0;) {
        Entry &e = entries[liveWays[i]];
        if (e.fillDone <= now)
            freeWay(e);
    }
    nextSweep = now + sweepPeriod;
}

uint64_t
MshrFile::lookup(uint64_t line, uint64_t now)
{
    sweepIfDue(now);
    Entry *set = setOf(line);
    uint64_t fill_done = 0;
    for (uint32_t w = 0; w < numWays; ++w) {
        Entry &e = set[w];
        if (e.fillDone == 0)
            continue;
        if (e.fillDone <= now) {
            // Landed (for the probed line: the tag arrays own it
            // now); reclaim every expired way met along the walk so
            // occupancy tracks live fills, not stale residue.
            freeWay(e);
            continue;
        }
        if (e.line == line)
            fill_done = e.fillDone;
    }
    return fill_done;
}

bool
MshrFile::setFull(uint64_t line, uint64_t now)
{
    sweepIfDue(now);
    Entry *set = setOf(line);
    uint32_t live = 0;
    for (uint32_t w = 0; w < numWays; ++w) {
        Entry &e = set[w];
        if (e.fillDone != 0 && e.fillDone <= now)
            freeWay(e); // lazy expiry, same as lookup/allocate
        if (e.fillDone != 0)
            ++live;
    }
    return live == numWays;
}

void
MshrFile::allocate(uint64_t line, uint64_t fill_done, uint64_t now)
{
    KILO_ASSERT(fill_done > now,
                "fill completing at cycle %llu scheduled at %llu",
                (unsigned long long)fill_done,
                (unsigned long long)now);
    sweepIfDue(now);
    Entry *set = setOf(line);
    Entry *victim = nullptr;
    Entry *soonest = &set[0];
    uint32_t set_live = 0; // live ways after expiry (one set walk)
    for (uint32_t w = 0; w < numWays; ++w) {
        Entry &e = set[w];
        if (e.fillDone != 0 && e.fillDone <= now)
            freeWay(e); // lazy expiry on the probed set
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
        // Set full of live fills: displace the one closest to landing
        // (its primary access already carries the correct latency; it
        // only loses the remainder of its merge window).
        ++nDisplaced;
        freeWay(*soonest);
        victim = soonest;
        --set_live;
    }
    victim->line = line;
    victim->fillDone = fill_done;
    markLive(uint32_t(victim - entries.data()));
    if (occupancy() > peak)
        peak = occupancy();

    // Sample this set's live-way count after insertion (1..numWays)
    // for the per-set occupancy distribution.
    setOccHist.sample(set_live + 1);
}

} // namespace kilo::mem
