#include "src/dkip/llib.hh"

#include "src/util/logging.hh"

namespace kilo::dkip
{

Llib::Llib(std::string name, size_t capacity,
           core::InstArena &inst_arena)
    : arena(inst_arena), label(std::move(name)), cap(capacity),
      q(capacity)
{}

void
Llib::push(core::InstRef ref)
{
    KILO_ASSERT(!full(), "push into full LLIB %s", label.c_str());
    KILO_ASSERT(q.empty() ||
                    arena.get(q.back()).seq < arena.get(ref).seq,
                "LLIB insertion out of program order");
    q.push_back(ref);
    if (q.size() > maxOcc)
        maxOcc = q.size();
}

void
Llib::notifySquashed(core::InstRef ref)
{
    KILO_ASSERT(!q.empty() && q.back() == ref,
                "LLIB squash of non-youngest entry");
    q.pop_back();
}

bool
Llib::headBlocked() const
{
    if (q.empty())
        return false;
    const core::DynInst &head = arena.get(q.front());
    // "When the depending instructions arrive at the head of the LLIB
    // and the load value is available [...] insertion into the MP
    // happens. For other instructions insertion is performed without
    // additional checks." (paper, sections 3.2 and 3.4)
    // The head waits for the values of its feeding loads — they
    // arrive through the per-LLIB value FIFO and are written into
    // the MP's Future File at insertion. Non-load producers are
    // low-locality MP work already extracted ahead of the head (the
    // LLIB is a FIFO), so their results flow through the Future File
    // and "insertion is performed without additional checks" (3.4).
    // A stale producer handle means that load already completed and
    // committed.
    for (core::InstRef prodRef : arena.coldOf(head).producers) {
        const core::DynInst *prod = arena.tryGet(prodRef);
        if (prod && prod->op.isLoad() && !prod->completed)
            return true;
    }
    return false;
}

} // namespace kilo::dkip
