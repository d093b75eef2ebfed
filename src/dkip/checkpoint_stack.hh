/**
 * @file
 * Checkpointing stack with the Architectural Writers Log (AWL).
 *
 * The D-KIP takes a full register-state checkpoint whenever a branch
 * is inserted into an LLIB (selective checkpointing at the risky,
 * long-latency branches). The stack records the LLBV snapshot so that
 * recovery can restore the Cache Processor's locality state; the AWL
 * (the per-register writer positions the hardware needs to fill in
 * long-latency values) is implied by the trace-driven dataflow and
 * carries no separate timing state.
 */

#pragma once

#include <cstdint>
#include <deque>

#include "src/ckpt/serial.hh"
#include "src/util/bit_vector.hh"

namespace kilo::dkip
{

/** One checkpoint record. */
struct Checkpoint
{
    uint64_t seq = 0;        ///< branch the checkpoint covers
    BitVector llbv;          ///< LLBV snapshot at Analyze time
    bool resolved = false;   ///< branch resolved correctly
};

/** Bounded stack of in-flight checkpoints. */
class CheckpointStack
{
  public:
    explicit CheckpointStack(size_t capacity);

    size_t capacity() const { return cap; }
    size_t size() const { return entries.size(); }
    bool full() const { return entries.size() >= cap; }
    bool empty() const { return entries.empty(); }

    /** Take a checkpoint for the branch with sequence @p seq. */
    void push(uint64_t seq, const BitVector &llbv);

    /**
     * The branch with sequence @p seq resolved correctly; release its
     * checkpoint (and any older resolved ones) from the head.
     */
    void resolve(uint64_t seq);

    /** Checkpoint belonging to branch @p seq, or null. */
    const Checkpoint *findFor(uint64_t seq) const;

    /** Drop every checkpoint with sequence >= @p seq (recovery). */
    void squashFrom(uint64_t seq);

    /** Serialize / restore the in-flight checkpoints element-wise
     *  (each entry carries a BitVector). Capacity is configuration;
     *  load() throws ckpt::CheckpointError when the saved count
     *  does not fit. @{ */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        s.template scalar<uint64_t>(entries.size());
        for (const Checkpoint &c : entries) {
            s.template scalar<uint64_t>(c.seq);
            c.llbv.save(s);
            s.template scalar<uint8_t>(c.resolved ? 1 : 0);
        }
    }

    template <typename Source>
    void
    load(Source &s)
    {
        uint64_t n = s.template scalar<uint64_t>();
        ckpt::expectAtMost(n, cap, "checkpoint-stack depth");
        entries.clear();
        for (uint64_t i = 0; i < n; ++i) {
            Checkpoint c;
            c.seq = s.template scalar<uint64_t>();
            c.llbv.load(s);
            c.resolved = s.template scalar<uint8_t>() != 0;
            entries.push_back(std::move(c));
        }
    }
    /** @} */

  private:
    size_t cap;
    std::deque<Checkpoint> entries;
};

} // namespace kilo::dkip

