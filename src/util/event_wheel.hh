/**
 * @file
 * Timing wheel that schedules instruction-completion events.
 *
 * The cores schedule "this micro-op finishes at cycle T" events; the
 * wheel pops everything due at the current cycle in O(1) amortised and
 * can report the next non-empty slot so idle periods can be skipped.
 *
 * Implemented as a real timing wheel: a power-of-two ring of slot
 * vectors indexed by cycle, plus an overflow list for events beyond
 * the horizon (unreachable with the paper's latencies — the deepest
 * completion is a ~1000-cycle memory access against a 4096-cycle
 * default horizon). Slot vectors retain their capacity, so the
 * steady-state schedule/pop traffic performs no heap allocation;
 * the previous std::map implementation allocated a tree node per
 * distinct completion cycle.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/util/logging.hh"

namespace kilo
{

/**
 * Calendar queue keyed by absolute cycle.
 *
 * Events must be scheduled at cycles >= the argument of the last
 * popDue() call; pops deliver events in ascending cycle order and in
 * insertion order within a cycle, exactly like the ordered-map
 * implementation it replaces (the overflow path orders by cycle
 * only).
 */
template <typename T>
class EventWheel
{
  public:
    /** @param horizon_hint minimum schedule-ahead distance covered by
     *  the ring; farther events go to the (rare) overflow list. */
    explicit EventWheel(uint64_t horizon_hint = 4096)
    {
        uint64_t n = 1;
        while (n < horizon_hint)
            n <<= 1;
        ring.resize(size_t(n));
    }

    /** Schedule @p payload to pop at absolute @p cycle. */
    void
    schedule(uint64_t cycle, const T &payload)
    {
        KILO_ASSERT(cycle >= popFrontier,
                    "EventWheel schedule in the past");
        if (cycle - popFrontier < horizon())
            ring[slotOf(cycle)].push_back(Event{payload, cycle});
        else
            overflow.push_back(Event{payload, cycle});
        ++count;
        // NoCycle doubles as "unknown": only seed the cache when the
        // wheel was empty (nothing earlier can be pending); a min
        // update against the unknown sentinel would over-report
        // nextCycle() past events scheduled before the invalidation.
        if (count == 1)
            cachedNext = cycle;
        else if (cachedNext != NoCycle && cycle < cachedNext)
            cachedNext = cycle;
    }

    /** Number of pending events. */
    size_t size() const { return count; }

    /** True when nothing is scheduled. */
    bool empty() const { return count == 0; }

    /**
     * Earliest cycle with a pending event.
     * @pre !empty()
     */
    uint64_t
    nextCycle() const
    {
        KILO_ASSERT(!empty(), "nextCycle on empty EventWheel");
        if (cachedNext != NoCycle)
            return cachedNext;
        uint64_t best = NoCycle;
        for (const auto &ev : overflow)
            best = std::min(best, ev.cycle);
        // Every ring slot holds exactly one cycle (the horizon bounds
        // schedule-ahead), so the first non-empty slot in frontier
        // order is the earliest in-ring event.
        for (uint64_t c = popFrontier;
             c < popFrontier + horizon() && c < best; ++c) {
            if (!ring[slotOf(c)].empty()) {
                best = c;
                break;
            }
        }
        KILO_ASSERT(best != NoCycle, "EventWheel lost an event");
        cachedNext = best;
        return best;
    }

    /**
     * Pop every event due at or before @p cycle into @p out.
     * Returns the number of events popped.
     */
    size_t
    popDue(uint64_t cycle, std::vector<T> &out)
    {
        // Everything below the frontier was already popped; without
        // this guard the horizon clamp underflows and would deliver
        // future events early.
        if (cycle < popFrontier)
            return 0;
        size_t popped = 0;
        if (count) {
            uint64_t stop = cycle + 1;
            // One full revolution covers every in-ring event.
            if (stop - popFrontier > horizon())
                stop = popFrontier + horizon();
            for (uint64_t c = popFrontier; c < stop && count; ++c) {
                auto &slot = ring[slotOf(c)];
                if (slot.empty())
                    continue;
                for (const auto &ev : slot) {
                    KILO_ASSERT(ev.cycle == c,
                                "EventWheel slot aliasing");
                    out.push_back(ev.payload);
                    ++popped;
                }
                count -= slot.size();
                slot.clear(); // keeps capacity for reuse
            }
            popped += popDueOverflow(cycle, out);
        }
        if (cycle >= popFrontier)
            popFrontier = cycle + 1;
        if (cachedNext != NoCycle && cachedNext < popFrontier)
            cachedNext = NoCycle;
        migrateOverflow();
        return popped;
    }

    /**
     * Move the pop frontier to @p cycle without popping, exactly as
     * the popDue() calls of the cycles before it would have (idle
     * skips). Nothing may be pending before @p cycle.
     */
    void
    skipTo(uint64_t cycle)
    {
        KILO_ASSERT(empty() || nextCycle() >= cycle,
                    "EventWheel skip past a pending event");
        if (cycle <= popFrontier)
            return;
        popFrontier = cycle;
        migrateOverflow();
    }

    /** Drop all pending events (full-pipeline squash). */
    void
    clear()
    {
        for (auto &slot : ring)
            slot.clear();
        overflow.clear();
        count = 0;
        cachedNext = NoCycle;
    }

    /**
     * Serialize / restore the pending-event set. Events are saved as
     * one flat (payload, cycle) list in pop order — ring slots in
     * frontier order, then overflow — and re-scheduled on load, which
     * reconstructs identical slot vectors. The horizon is
     * configuration and is not part of the image. @{
     */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        // Element-wise, payload then cycle: Event has padding after
        // a payload smaller than 8 bytes, and indeterminate padding
        // must never reach a checkpoint payload or a KILOAUD state
        // digest. The payload itself must be padding-free.
        static_assert(std::has_unique_object_representations_v<T>,
                      "EventWheel::save requires a padding-free "
                      "payload");
        s.template scalar<uint64_t>(popFrontier);
        s.template scalar<uint64_t>(count);
        uint64_t written = 0;
        for (uint64_t c = popFrontier; c < popFrontier + horizon();
             ++c) {
            for (const auto &ev : ring[slotOf(c)]) {
                s.template scalar<T>(ev.payload);
                s.template scalar<uint64_t>(ev.cycle);
                ++written;
            }
        }
        for (const auto &ev : overflow) {
            s.template scalar<T>(ev.payload);
            s.template scalar<uint64_t>(ev.cycle);
            ++written;
        }
        KILO_ASSERT(written == count,
                    "EventWheel lost events during save");
    }

    template <typename Source>
    void
    load(Source &s)
    {
        clear();
        popFrontier = s.template scalar<uint64_t>();
        uint64_t n = s.template scalar<uint64_t>();
        for (uint64_t i = 0; i < n; ++i) {
            T payload = s.template scalar<T>();
            uint64_t cycle = s.template scalar<uint64_t>();
            schedule(cycle, payload);
        }
    }
    /** @} */

  private:
    static constexpr uint64_t NoCycle = UINT64_MAX;

    struct Event
    {
        T payload{};
        uint64_t cycle = 0;
    };

    uint64_t horizon() const { return uint64_t(ring.size()); }
    size_t slotOf(uint64_t cycle) const
    {
        return size_t(cycle & (horizon() - 1));
    }

    /** Pop due overflow events, ordered by cycle (cold path). */
    size_t
    popDueOverflow(uint64_t cycle, std::vector<T> &out)
    {
        if (overflow.empty())
            return 0;
        auto due = std::stable_partition(
            overflow.begin(), overflow.end(),
            [cycle](const Event &ev) { return ev.cycle > cycle; });
        if (due == overflow.end())
            return 0;
        std::stable_sort(due, overflow.end(),
                         [](const Event &a, const Event &b) {
                             return a.cycle < b.cycle;
                         });
        size_t popped = 0;
        for (auto it = due; it != overflow.end(); ++it) {
            out.push_back(it->payload);
            ++popped;
        }
        overflow.erase(due, overflow.end());
        count -= popped;
        return popped;
    }

    /** Move overflow events that entered the horizon into the ring.
     *  The frontier only advances, so a migrated event never has to
     *  move back out. */
    void
    migrateOverflow()
    {
        if (overflow.empty())
            return;
        // Stable compaction: same-cycle events keep their insertion
        // order through the migration into the ring.
        size_t keep = 0;
        for (size_t i = 0; i < overflow.size(); ++i) {
            if (overflow[i].cycle - popFrontier < horizon())
                ring[slotOf(overflow[i].cycle)].push_back(overflow[i]);
            else
                overflow[keep++] = overflow[i];
        }
        overflow.resize(keep);
    }

    std::vector<std::vector<Event>> ring;
    std::vector<Event> overflow;
    uint64_t popFrontier = 0;   ///< all cycles below are popped
    mutable uint64_t cachedNext = NoCycle;
    size_t count = 0;
};

} // namespace kilo

