/**
 * @file
 * Set-associative cache tag model with LRU replacement.
 *
 * Only tags are modelled — the simulator is trace driven and never
 * needs data. One instance each models the L1D and the (size-swept)
 * L2 of the paper's memory subsystems.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "src/ckpt/serial.hh"

namespace kilo::mem
{

/** Geometry of a cache level. */
struct CacheGeometry
{
    uint64_t sizeBytes = 32 * 1024;
    uint32_t assoc = 4;
    uint32_t lineBytes = 64;
};

/**
 * Tag array of one cache level.
 *
 * access() probes and, on a miss, installs the line (fetch-on-miss,
 * write-allocate); LRU state is a per-way generation stamp.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geom);

    /**
     * Probe for @p addr, updating LRU state and installing the line
     * on a miss.
     * @return true on hit.
     */
    bool access(uint64_t addr);

    /**
     * Evolve tag state exactly as access() would — LRU refresh on a
     * hit, installation on absence — without counting an access or a
     * miss. Used for MSHR fill reservations: a merged access keeps
     * the line's tag warm, but its miss was already charged to the
     * primary access that started the fill.
     */
    void touch(uint64_t addr);

    /** Probe without modifying any state. */
    bool probe(uint64_t addr) const;

    /** Drop every line. */
    void invalidateAll();

    /** Number of sets. */
    uint32_t numSets() const { return sets; }

    /** Associativity. */
    uint32_t numWays() const { return ways; }

    /** Line size in bytes. */
    uint32_t lineSize() const { return line; }

    /** Total accesses observed. */
    uint64_t accesses() const { return nAccesses; }

    /** Total misses observed. */
    uint64_t misses() const { return nMisses; }

    /** Miss ratio in [0, 1]. */
    double
    missRatio() const
    {
        return nAccesses ? double(nMisses) / double(nAccesses) : 0.0;
    }

    /** Zero the statistics (end of warm-up). */
    void resetStats();

    /** Serialize / restore tag state and statistics, field by field
     *  (Way has tail padding; indeterminate padding bytes must never
     *  reach a checkpoint payload or a KILOAUD state digest).
     *  Geometry is configuration; load() asserts it matches. @{ */
    template <typename Sink>
    void
    save(Sink &s) const
    {
        s.template scalar<uint64_t>(store.size());
        for (const Way &w : store) {
            s.template scalar<uint64_t>(w.tag);
            s.template scalar<uint64_t>(w.lruStamp);
            s.template scalar<uint8_t>(w.valid ? 1 : 0);
        }
        s.template scalar<uint64_t>(stamp);
        s.template scalar<uint64_t>(nAccesses);
        s.template scalar<uint64_t>(nMisses);
    }

    template <typename Source>
    void
    load(Source &s)
    {
        uint64_t sz = s.template scalar<uint64_t>();
        ckpt::expectEq(sz, store.size(), "cache geometry (ways)");
        for (Way &w : store) {
            w.tag = s.template scalar<uint64_t>();
            w.lruStamp = s.template scalar<uint64_t>();
            w.valid = s.template scalar<uint8_t>() != 0;
        }
        stamp = s.template scalar<uint64_t>();
        nAccesses = s.template scalar<uint64_t>();
        nMisses = s.template scalar<uint64_t>();
    }
    /** @} */

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lruStamp = 0;
        bool valid = false;
    };

    /** Geometry is power-of-two by construction, so indexing is pure
     *  shift/mask — no divide or modulo on the access path. @{ */
    uint64_t lineOf(uint64_t addr) const { return addr >> lineShift; }

    uint32_t
    setOf(uint64_t addr) const
    {
        return uint32_t(lineOf(addr)) & setMask;
    }

    uint64_t tagOf(uint64_t addr) const { return lineOf(addr) >> setShift; }
    /** @} */

    bool probeInstall(uint64_t addr, bool count_stats);

    uint32_t sets;
    uint32_t ways;
    uint32_t line;
    uint32_t lineShift; ///< log2(line)
    uint32_t setShift;  ///< log2(sets)
    uint32_t setMask;   ///< sets - 1
    std::vector<Way> store;
    uint64_t stamp = 0;
    uint64_t nAccesses = 0;
    uint64_t nMisses = 0;
};

} // namespace kilo::mem

