/**
 * @file
 * Low-Locality Instruction Buffer (LLIB).
 *
 * A plain FIFO with no issue capability and no CAM — the structural
 * heart of the D-KIP's complexity argument. Instructions enter at
 * Analyze and leave, in order, toward a Memory Processor once the
 * long-latency load(s) they directly depend on have completed.
 */

#pragma once

#include <string>

#include "src/ckpt/serial.hh"
#include "src/core/dyn_inst.hh"
#include "src/core/inst_arena.hh"
#include "src/util/ring_deque.hh"

namespace kilo::dkip
{

/** FIFO instruction buffer for one locality domain (int or FP). */
class Llib
{
  public:
    Llib(std::string name, size_t capacity, core::InstArena &arena);

    const std::string &name() const { return label; }
    size_t capacity() const { return cap; }
    size_t size() const { return q.size(); }
    bool empty() const { return q.empty(); }
    bool full() const { return q.size() >= cap; }

    /** High-water mark of occupancy (Figures 13/14). */
    uint64_t maxOccupancy() const { return maxOcc; }

    /** Append at the tail (Analyze insertion, program order). */
    void push(core::InstRef ref);

    /** Oldest entry. */
    core::InstRef front() const { return q.front(); }

    /** Remove the oldest entry (extraction into the MP). */
    core::InstRef
    popFront()
    {
        core::InstRef ref = q.front();
        q.pop_front();
        return ref;
    }

    /** @p ref was squashed; it must be the youngest entry. */
    void notifySquashed(core::InstRef ref);

    /**
     * True when the head must keep waiting: it depends directly on a
     * long-latency load that has not yet delivered its value.
     */
    bool headBlocked() const;

    /** Serialize / restore the FIFO contents (handles into the shared
     *  arena, serialized alongside) and the high-water mark. The
     *  capacity is configuration: a checkpoint that holds more
     *  entries than it is rejected. @{ */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        q.save(s);
        s.template scalar<uint64_t>(maxOcc);
    }

    template <typename Source>
    void
    load(Source &s)
    {
        q.load(s);
        ckpt::expectAtMost(q.size(), cap,
                           (label + " occupancy").c_str());
        maxOcc = s.template scalar<uint64_t>();
    }
    /** @} */

  private:
    core::InstArena &arena;
    std::string label;
    size_t cap;
    RingDeque<core::InstRef> q;  ///< sized for cap up front; never grows
    uint64_t maxOcc = 0;
};

} // namespace kilo::dkip

