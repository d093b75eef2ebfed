#include "src/mem/cache.hh"

#include <algorithm>
#include <bit>

#include "src/util/logging.hh"

namespace kilo::mem
{

namespace
{

bool
isPow2(uint64_t v)
{
    return v && !(v & (v - 1));
}

} // anonymous namespace

SetAssocCache::SetAssocCache(const CacheGeometry &geom)
    : ways(geom.assoc), line(geom.lineBytes)
{
    KILO_ASSERT(isPow2(geom.lineBytes), "line size must be power of 2");
    KILO_ASSERT(geom.assoc > 0, "associativity must be positive");
    uint64_t lines = geom.sizeBytes / geom.lineBytes;
    KILO_ASSERT(lines >= geom.assoc, "cache smaller than one set");
    uint64_t want_sets = lines / geom.assoc;
    uint64_t pow2_sets = std::bit_floor(want_sets);
    if (pow2_sets != want_sets) {
        // A capacity sweep point such as 384 KB yields a non-pow2 set
        // count; index with the largest power of two that fits rather
        // than panicking mid-sweep.
        KILO_WARN("cache: %llu-byte capacity gives %llu sets; "
                  "rounding down to %llu (effective %llu KB)",
                  (unsigned long long)geom.sizeBytes,
                  (unsigned long long)want_sets,
                  (unsigned long long)pow2_sets,
                  (unsigned long long)(pow2_sets * geom.assoc *
                                       geom.lineBytes / 1024));
    }
    sets = uint32_t(pow2_sets);
    lineShift = uint32_t(std::countr_zero(uint64_t(line)));
    setShift = uint32_t(std::countr_zero(uint64_t(sets)));
    setMask = sets - 1;
    store.resize(size_t(sets) * ways);
}

SetAssocCache::Fill
SetAssocCache::fill(Way *base, uint64_t tag, uint64_t at)
{
    Way *victim = base;
    for (uint32_t w = 0; w < ways; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lruStamp = at;
            return {&way, true};
        }
        if (!way.valid) {
            victim = &way;
        } else if (victim->valid && way.lruStamp < victim->lruStamp) {
            victim = &way;
        }
    }

    victim->valid = true;
    victim->tag = tag;
    victim->lruStamp = at;
    return {victim, false};
}

bool
SetAssocCache::probeInstall(uint64_t addr, bool count_stats)
{
    if (count_stats)
        ++nAccesses;
    Fill f = fill(&store[size_t(setOf(addr)) * ways], tagOf(addr),
                  ++stamp);
    if (count_stats && !f.hit)
        ++nMisses;
    return f.hit;
}

void
SetAssocCache::accessLines(uint64_t addr, uint64_t count)
{
    if (count == 0)
        return;
    const uint64_t first = lineOf(addr);
    KILO_ASSERT(count - 1 <= (~uint64_t(0) >> lineShift) - first,
                "accessLines range wraps the address space");

    // Sweep access i (line first + i) runs at stamp stamp0 + i + 1.
    // Set first + d sees the lines first + d + j * sets, j = 0..m-1,
    // whose tags tag0 + j strictly increase. Its first min(ways, m)
    // accesses each touch a way no earlier access of this sweep
    // touched: a hit finds a tag no touched way holds, and a miss
    // takes an invalid way or the oldest stamp, which is an untouched
    // way's because touched ways are stamped above stamp0. Those run
    // the normal fill. Every later access misses and evicts the way
    // of access j - ways, so way order[r] ends holding the last j of
    // residue r mod ways.
    const uint64_t stamp0 = stamp;
    const uint64_t used_sets = std::min<uint64_t>(count, sets);
    std::vector<uint32_t> order(ways);
    uint64_t misses = 0;
    for (uint64_t d = 0; d < used_sets; ++d) {
        Way *base = &store[size_t((first + d) & setMask) * ways];
        const uint64_t tag0 = (first + d) >> setShift;
        const uint64_t m = (count - 1 - d) / sets + 1;
        const uint64_t direct = std::min<uint64_t>(m, ways);
        for (uint64_t j = 0; j < direct; ++j) {
            Fill f = fill(base, tag0 + j, stamp0 + d + j * sets + 1);
            order[j] = uint32_t(f.way - base);
            misses += f.hit ? 0 : 1;
        }
        if (m <= ways)
            continue;
        misses += m - ways;
        const uint64_t top = (m - 1) / ways * ways;
        for (uint32_t r = 0; r < ways; ++r) {
            const uint64_t j = top + r < m ? top + r : top + r - ways;
            Way &way = base[order[r]];
            way.tag = tag0 + j;
            way.lruStamp = stamp0 + d + j * sets + 1;
        }
    }
    stamp = stamp0 + count;
    nAccesses += count;
    nMisses += misses;
}

bool
SetAssocCache::access(uint64_t addr)
{
    return probeInstall(addr, true);
}

void
SetAssocCache::touch(uint64_t addr)
{
    probeInstall(addr, false);
}

bool
SetAssocCache::probe(uint64_t addr) const
{
    uint32_t set = setOf(addr);
    uint64_t tag = tagOf(addr);
    const Way *base = &store[size_t(set) * ways];
    for (uint32_t w = 0; w < ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

void
SetAssocCache::invalidateAll()
{
    for (auto &way : store)
        way.valid = false;
}

void
SetAssocCache::resetStats()
{
    nAccesses = 0;
    nMisses = 0;
}

} // namespace kilo::mem
