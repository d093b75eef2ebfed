#include "src/core/inst_arena.hh"

#include "src/util/logging.hh"

namespace kilo::core
{

InstArena::InstArena(uint32_t initial_slots)
{
    uint32_t slabs_needed =
        (initial_slots + SlabSize - 1) / SlabSize;
    if (slabs_needed == 0)
        slabs_needed = 1;
    for (uint32_t i = 0; i < slabs_needed; ++i)
        addSlab();
}

void
InstArena::addSlab()
{
    KILO_ASSERT(numSlots + SlabSize <= InstRef::MaxSlots,
                "InstArena exceeds the %u-slot handle space",
                InstRef::MaxSlots);
    slabs.push_back(std::make_unique<DynInst[]>(SlabSize));
    coldSlabs.push_back(std::make_unique<DynInstCold[]>(SlabSize));
    slots.grow(SlabSize);
    numSlots += SlabSize;
}

uint32_t
InstArena::depAlloc()
{
    if (depFreeHead == DynInst::NoDep) {
        // Grow the edge pool by one slab worth of nodes, chained onto
        // the free list. Hits only until the window's dataflow
        // high-water mark; steady state recycles.
        uint32_t base = uint32_t(depNodes.size());
        KILO_ASSERT(base + SlabSize >= base, "dep pool overflow");
        depNodes.resize(size_t(base) + SlabSize);
        for (uint32_t i = 0; i < SlabSize; ++i) {
            depNodes[base + i].next =
                i + 1 < SlabSize ? base + i + 1 : DynInst::NoDep;
        }
        depFreeHead = base;
    }
    uint32_t node = depFreeHead;
    depFreeHead = depNodes[node].next;
    ++depsLive;
    return node;
}

namespace
{

// The records a fresh allocation copies. Copying from a value-
// initialised record covers fields added later without a hand-kept
// list; copying from static storage, rather than assigning a
// temporary, keeps the reset free of a zeroed stack copy.
const DynInst FreshInst{};
const DynInstCold FreshCold{};

} // anonymous namespace

InstRef
InstArena::alloc()
{
    if (!slots.hasFree())
        addSlab();
    uint32_t idx = slots.alloc();
    DynInst &inst = slotAt(idx);
    KILO_ASSERT(inst.depHead == DynInst::NoDep,
                "recycled slot still holds a dependent chain");
    const uint32_t keep_gen = inst.gen;
    inst = FreshInst;
    inst.gen = keep_gen;
    coldAt(idx) = FreshCold;
    inst.self = InstRef::make(idx, inst.gen & InstRef::GenMask);
    KILO_ASSERT(inst.self.valid(),
                "live handle collided with the null sentinel");
    ++nAllocs;
    return inst.self;
}

// Slots are serialized field by field, never as raw slab bytes:
// DynInst (bitfields) and DynInstCold (tail padding) both carry
// indeterminate padding, and alloc()'s whole-struct copies carry the
// fresh records' padding into the slab — raw bytes would
// make checkpoint payloads (and therefore KILOAUD state digests)
// vary run to run under ASLR. The exact-size asserts force this list
// to be revisited whenever either struct grows a field.
static_assert(sizeof(DynInst) == 64 && sizeof(DynInstCold) == 88,
              "DynInst/DynInstCold layout changed: update "
              "saveSlot()/loadSlot() to cover the new fields");

namespace
{

void
saveSlot(ckpt::Sink &s, const DynInst &d, const DynInstCold &c)
{
    s.scalar(d.op);
    s.scalar(d.seq);
    s.scalar(d.readyCycle);
    s.scalar(d.fetchCycle);
    s.scalar(d.self);
    s.scalar(d.gen);
    s.scalar(d.depHead);
    s.scalar(d.lsqBucketNext);
    s.scalar(d.iqId);
    uint16_t flags =
        uint16_t(d.dispatched) | uint16_t(d.readyFlag) << 1 |
        uint16_t(d.issued) << 2 | uint16_t(d.completed) << 3 |
        uint16_t(d.squashed) << 4 | uint16_t(d.retired) << 5 |
        uint16_t(d.inLsq) << 6 | uint16_t(d.inRob) << 7 |
        uint16_t(d.predTaken) << 8 | uint16_t(d.mispredicted) << 9 |
        uint16_t(d.longLatency) << 10 | uint16_t(d.inLlib) << 11 |
        uint16_t(d.execInMp) << 12;
    s.scalar(flags);
    s.scalar(d.srcNotReady);
    s.scalar(uint8_t(d.serviceLevel));
    s.scalar(d.llrfBank);
    s.scalar(d.llrfSlot);

    s.scalar(c.pc);
    s.scalar(c.target);
    s.scalar(c.dispatchCycle);
    s.scalar(c.issueCycle);
    s.scalar(c.completeCycle);
    s.scalar(c.historySnapshot);
    s.scalar(c.producers[0]);
    s.scalar(c.producers[1]);
    s.scalar(c.prevProducer);
    s.scalar(c.prevReadyCycle);
    s.scalar(c.prevDefinerSeq);
    s.scalar(uint8_t(c.prevDefinerValid));
}

void
loadSlot(ckpt::Source &s, DynInst &d, DynInstCold &c)
{
    d.op = s.scalar<isa::MicroOpHot>();
    d.seq = s.scalar<uint64_t>();
    d.readyCycle = s.scalar<uint64_t>();
    d.fetchCycle = s.scalar<uint64_t>();
    d.self = s.scalar<InstRef>();
    d.gen = s.scalar<uint32_t>();
    d.depHead = s.scalar<uint32_t>();
    d.lsqBucketNext = s.scalar<InstRef>();
    d.iqId = s.scalar<int8_t>();
    uint16_t flags = s.scalar<uint16_t>();
    d.dispatched = flags & 1;
    d.readyFlag = flags >> 1 & 1;
    d.issued = flags >> 2 & 1;
    d.completed = flags >> 3 & 1;
    d.squashed = flags >> 4 & 1;
    d.retired = flags >> 5 & 1;
    d.inLsq = flags >> 6 & 1;
    d.inRob = flags >> 7 & 1;
    d.predTaken = flags >> 8 & 1;
    d.mispredicted = flags >> 9 & 1;
    d.longLatency = flags >> 10 & 1;
    d.inLlib = flags >> 11 & 1;
    d.execInMp = flags >> 12 & 1;
    d.srcNotReady = s.scalar<int8_t>();
    d.serviceLevel = mem::ServiceLevel(s.scalar<uint8_t>());
    d.llrfBank = s.scalar<int8_t>();
    d.llrfSlot = s.scalar<int16_t>();

    c.pc = s.scalar<uint64_t>();
    c.target = s.scalar<uint64_t>();
    c.dispatchCycle = s.scalar<uint64_t>();
    c.issueCycle = s.scalar<uint64_t>();
    c.completeCycle = s.scalar<uint64_t>();
    c.historySnapshot = s.scalar<uint64_t>();
    c.producers[0] = s.scalar<InstRef>();
    c.producers[1] = s.scalar<InstRef>();
    c.prevProducer = s.scalar<InstRef>();
    c.prevReadyCycle = s.scalar<uint64_t>();
    c.prevDefinerSeq = s.scalar<uint64_t>();
    c.prevDefinerValid = s.scalar<uint8_t>() != 0;
}

} // anonymous namespace

void
InstArena::save(ckpt::Sink &s) const
{
    auto *self = const_cast<InstArena *>(this);
    s.scalar(uint32_t(numSlots));
    for (uint32_t i = 0; i < numSlots; ++i)
        saveSlot(s, self->slotAt(i), self->coldAt(i));
    s.podVector(depNodes);
    s.scalar(uint32_t(depFreeHead));
    s.scalar(uint32_t(depsLive));
    slots.save(s);
    s.scalar(uint64_t(nAllocs));
    s.scalar(uint64_t(nFrees));
}

void
InstArena::load(ckpt::Source &s)
{
    uint32_t saved_slots = s.scalar<uint32_t>();
    if (numSlots > saved_slots)
        throw ckpt::CheckpointError(
            "arena checkpoint is smaller than the current arena "
            "(slots cannot shrink)");
    while (numSlots < saved_slots)
        addSlab();
    for (uint32_t i = 0; i < numSlots; ++i)
        loadSlot(s, slotAt(i), coldAt(i));
    s.podVector(depNodes);
    depFreeHead = s.scalar<uint32_t>();
    depsLive = s.scalar<uint32_t>();
    slots.load(s);
    nAllocs = s.scalar<uint64_t>();
    nFrees = s.scalar<uint64_t>();
}

void
InstArena::free(InstRef ref)
{
    DynInst *inst = tryGet(ref);
    KILO_ASSERT(inst != nullptr, "InstArena::free of stale handle");
    // Any dataflow edges still recorded go back to the pool; the
    // handles they held go stale with the slot anyway.
    releaseDependents(*inst);
    // Bump the generation: every outstanding handle to this slot is
    // now stale and dereferences to null. The last slot skips the
    // generation whose packed encoding would collide with the
    // all-ones null sentinel.
    inst->gen = (inst->gen + 1) & InstRef::GenMask;
    if (ref.index() == InstRef::MaxSlots - 1 &&
        inst->gen == InstRef::GenMask) {
        inst->gen = 0;
    }
    inst->self = InstRef();
    slots.release(ref.index());
    ++nFrees;
}

} // namespace kilo::core
