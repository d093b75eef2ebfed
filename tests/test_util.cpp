/**
 * @file
 * Unit tests for the utility layer: ring deque, bit vector, event
 * wheel, histogram, free list and RNG.
 */

#include <gtest/gtest.h>

#include "src/util/bit_vector.hh"
#include "src/util/event_wheel.hh"
#include "src/util/free_list.hh"
#include "src/util/histogram.hh"
#include "src/util/ring_deque.hh"
#include "src/util/rng.hh"

using namespace kilo;

// ---------------------------------------------------------------- Rng

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, RangeBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.range(17), 17u);
}

TEST(Rng, RangeZeroIsZero)
{
    Rng r(7);
    EXPECT_EQ(r.range(0), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng r(5);
    uint64_t first = r.next();
    r.next();
    r.seed(5);
    EXPECT_EQ(r.next(), first);
}

TEST(Rng, ZeroSeedRemapped)
{
    Rng r(0);
    EXPECT_NE(r.next(), 0u);
}

// -------------------------------------------------------- RingDeque

TEST(RingDeque, StartsEmptyWithPowerOfTwoCapacity)
{
    RingDeque<int> d(5);
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.size(), 0u);
    EXPECT_EQ(d.capacity(), 8u);
}

TEST(RingDeque, FifoOrder)
{
    RingDeque<int> d(4);
    d.push_back(1);
    d.push_back(2);
    d.push_back(3);
    for (int want = 1; want <= 3; ++want) {
        EXPECT_EQ(d.front(), want);
        d.pop_front();
    }
    EXPECT_TRUE(d.empty());
}

TEST(RingDeque, GrowsOnlyPastCapacity)
{
    // Owners bound occupancy by their configured size, which the
    // constructor covers, so the ring is allocated exactly once.
    RingDeque<int> d(4);
    for (int i = 0; i < 4; ++i)
        d.push_back(i);
    EXPECT_EQ(d.capacity(), 4u);
    d.push_back(4);
    EXPECT_EQ(d.capacity(), 8u);
    EXPECT_EQ(d[4], 4);
}

TEST(RingDeque, WrapAround)
{
    RingDeque<int> d(3);
    for (int round = 0; round < 10; ++round) {
        d.push_back(round);
        EXPECT_EQ(d.front(), round);
        d.pop_front();
    }
    EXPECT_TRUE(d.empty());
    EXPECT_EQ(d.capacity(), 4u);
}

TEST(RingDeque, PopBackRemovesYoungest)
{
    RingDeque<int> d(4);
    d.push_back(1);
    d.push_back(2);
    d.push_back(3);
    d.pop_back();
    EXPECT_EQ(d.back(), 2);
    EXPECT_EQ(d.front(), 1);
}

TEST(RingDeque, PositionalAccess)
{
    RingDeque<int> d(4);
    d.push_back(10);
    d.push_back(20);
    d.push_back(30);
    d.pop_front();
    d.push_back(40);
    EXPECT_EQ(d[0], 20);
    EXPECT_EQ(d[1], 30);
    EXPECT_EQ(d[2], 40);
}

TEST(RingDeque, ClearEmpties)
{
    RingDeque<int> d(4);
    d.push_back(1);
    d.push_back(2);
    d.clear();
    EXPECT_TRUE(d.empty());
    d.push_back(9);
    EXPECT_EQ(d.front(), 9);
}

TEST(RingDequeDeath, IndexOutOfRangePanics)
{
    RingDeque<int> d(1);
    d.push_back(1);
    EXPECT_DEATH(d[1], "out of range");
}

TEST(RingDequeDeath, UnderflowPanics)
{
    RingDeque<int> d(1);
    EXPECT_DEATH(d.pop_front(), "empty");
}

// ------------------------------------------------------- BitVector

TEST(BitVector, StartsClear)
{
    BitVector bv(100);
    EXPECT_EQ(bv.popcount(), 0u);
    EXPECT_TRUE(bv.none());
    for (size_t i = 0; i < 100; ++i)
        EXPECT_FALSE(bv.test(i));
}

TEST(BitVector, SetAndTest)
{
    BitVector bv(64);
    bv.set(0);
    bv.set(63);
    bv.set(31);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(63));
    EXPECT_TRUE(bv.test(31));
    EXPECT_FALSE(bv.test(32));
    EXPECT_EQ(bv.popcount(), 3u);
}

TEST(BitVector, ClearBit)
{
    BitVector bv(10);
    bv.set(5);
    bv.clear(5);
    EXPECT_FALSE(bv.test(5));
    EXPECT_TRUE(bv.none());
}

TEST(BitVector, ClearAll)
{
    BitVector bv(130);
    for (size_t i = 0; i < 130; i += 7)
        bv.set(i);
    bv.clearAll();
    EXPECT_TRUE(bv.none());
}

TEST(BitVector, CrossWordBoundary)
{
    BitVector bv(130);
    bv.set(64);
    bv.set(128);
    EXPECT_TRUE(bv.test(64));
    EXPECT_TRUE(bv.test(128));
    EXPECT_EQ(bv.popcount(), 2u);
}

TEST(BitVector, CopyIsIndependent)
{
    BitVector a(16);
    a.set(3);
    BitVector b = a;
    b.set(4);
    EXPECT_FALSE(a.test(4));
    EXPECT_TRUE(b.test(3));
}

TEST(BitVectorDeath, OutOfRangePanics)
{
    BitVector bv(8);
    EXPECT_DEATH(bv.set(8), "range");
}

// ------------------------------------------------------ EventWheel

TEST(EventWheel, PopsInCycleOrder)
{
    EventWheel<int> ew;
    ew.schedule(10, 1);
    ew.schedule(5, 2);
    ew.schedule(10, 3);
    EXPECT_EQ(ew.size(), 3u);
    EXPECT_EQ(ew.nextCycle(), 5u);

    std::vector<int> out;
    EXPECT_EQ(ew.popDue(5, out), 1u);
    EXPECT_EQ(out, std::vector<int>({2}));

    out.clear();
    EXPECT_EQ(ew.popDue(10, out), 2u);
    EXPECT_EQ(out, std::vector<int>({1, 3}));
    EXPECT_TRUE(ew.empty());
}

TEST(EventWheel, PopDueNothingEarly)
{
    EventWheel<int> ew;
    ew.schedule(100, 1);
    std::vector<int> out;
    EXPECT_EQ(ew.popDue(99, out), 0u);
    EXPECT_EQ(ew.size(), 1u);
}

TEST(EventWheel, PopDueSweepsPast)
{
    EventWheel<int> ew;
    ew.schedule(3, 1);
    ew.schedule(7, 2);
    std::vector<int> out;
    EXPECT_EQ(ew.popDue(50, out), 2u);
    EXPECT_TRUE(ew.empty());
}

TEST(EventWheel, ClearDropsAll)
{
    EventWheel<int> ew;
    ew.schedule(1, 1);
    ew.schedule(2, 2);
    ew.clear();
    EXPECT_TRUE(ew.empty());
}

TEST(EventWheel, PopBelowFrontierIsNoop)
{
    EventWheel<int> ew;
    ew.schedule(20, 1);
    std::vector<int> out;
    ew.popDue(10, out); // frontier now 11
    EXPECT_TRUE(out.empty());
    // A pop below the frontier must not deliver future events early.
    EXPECT_EQ(ew.popDue(5, out), 0u);
    EXPECT_EQ(ew.size(), 1u);
    EXPECT_EQ(ew.nextCycle(), 20u);
}

TEST(EventWheel, NextCycleCorrectAfterPartialPopThenSchedule)
{
    // Regression: a schedule() arriving while the next-cycle cache
    // was invalidated (partial pop with events still pending) must
    // not mask the older pending event.
    EventWheel<int> ew;
    ew.schedule(100, 1);
    ew.schedule(110, 2);
    std::vector<int> out;
    ew.popDue(100, out); // pops 1, leaves 2@110 pending
    ew.schedule(600, 3);
    EXPECT_EQ(ew.nextCycle(), 110u);
    out.clear();
    ew.popDue(110, out);
    EXPECT_EQ(out, std::vector<int>({2}));
    EXPECT_EQ(ew.nextCycle(), 600u);
}

// ------------------------------------------------------- Histogram

TEST(Histogram, BucketsSamples)
{
    Histogram h(10, 5);
    h.sample(0);
    h.sample(9);
    h.sample(10);
    h.sample(49);
    h.sample(50); // overflow
    EXPECT_EQ(h.samples(), 5u);
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
}

TEST(Histogram, FractionBelow)
{
    Histogram h(10, 10);
    for (int i = 0; i < 70; ++i)
        h.sample(5);
    for (int i = 0; i < 30; ++i)
        h.sample(95);
    EXPECT_NEAR(h.fractionBelow(50), 0.7, 0.01);
    EXPECT_NEAR(h.fractionBelow(100), 1.0, 0.01);
}

TEST(Histogram, Mean)
{
    Histogram h(10, 10);
    h.sample(10);
    h.sample(20);
    h.sample(30);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, ResetZeroes)
{
    Histogram h(10, 4);
    h.sample(3);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.bucketCount(0), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, RenderContainsRows)
{
    Histogram h(10, 2);
    h.sample(1);
    std::string out = h.render();
    EXPECT_NE(out.find("0"), std::string::npos);
    EXPECT_NE(out.find("%"), std::string::npos);
}

// -------------------------------------------------------- FreeList

TEST(FreeList, AllocatesAllSlots)
{
    FreeList fl(4);
    EXPECT_EQ(fl.numFree(), 4u);
    std::vector<uint32_t> got;
    for (int i = 0; i < 4; ++i)
        got.push_back(fl.alloc());
    EXPECT_FALSE(fl.hasFree());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, std::vector<uint32_t>({0, 1, 2, 3}));
}

TEST(FreeList, ReleaseMakesAvailable)
{
    FreeList fl(2);
    uint32_t a = fl.alloc();
    fl.alloc();
    EXPECT_FALSE(fl.hasFree());
    fl.release(a);
    EXPECT_TRUE(fl.hasFree());
    EXPECT_EQ(fl.alloc(), a);
}

TEST(FreeList, NumAllocatedTracks)
{
    FreeList fl(3);
    uint32_t a = fl.alloc();
    EXPECT_EQ(fl.numAllocated(), 1u);
    fl.release(a);
    EXPECT_EQ(fl.numAllocated(), 0u);
}

TEST(FreeList, ResetRestoresAll)
{
    FreeList fl(3);
    fl.alloc();
    fl.alloc();
    fl.reset();
    EXPECT_EQ(fl.numFree(), 3u);
}

TEST(FreeListDeath, DoubleReleasePanics)
{
    FreeList fl(2);
    uint32_t a = fl.alloc();
    fl.release(a);
    EXPECT_DEATH(fl.release(a), "free");
}

TEST(FreeListDeath, EmptyAllocPanics)
{
    FreeList fl(1);
    fl.alloc();
    EXPECT_DEATH(fl.alloc(), "no free");
}
