#include "src/wload/synthetic.hh"

#include <algorithm>
#include <utility>

#include "src/util/logging.hh"

namespace kilo::wload
{

namespace
{

/** Rotating register pools: loads rotate through LoadRegBase, their
 *  dependent compute through pool A and the independent accumulator
 *  chains through pool B (FP presets use the same offsets from
 *  isa::FirstFpReg). */
constexpr int16_t ChaseReg = 1;
constexpr int16_t InductionReg = 4;
constexpr int16_t LoadRegBase = 8;     ///< r8..r15 (or f8..f15)
constexpr int16_t LoadRegCount = 8;
constexpr int16_t DepRegBase = 16;     ///< pool A: r16..r19
constexpr int16_t DepRegCount = 4;
constexpr int16_t IndepRegBase = 20;   ///< pool B: r20..r27
constexpr int16_t IndepRegCount = 8;

} // anonymous namespace

SyntheticWorkload::SyntheticWorkload(const WorkloadProfile &profile)
    : prof(profile), rng(profile.seed), newestLoadReg(DepRegBase)
{
    KILO_ASSERT(prof.streamLoads == 0 || prof.numStreams > 0,
                "stream loads require at least one stream");
    KILO_ASSERT(prof.chaseLoads == 0 || prof.chaseBytes >= 64 * 64,
                "chase region too small");
    KILO_ASSERT(prof.randLoads == 0 || prof.randBytes >= 64,
                "random region too small");

    buildChaseChain();
    streamPos.assign(size_t(std::max(prof.numStreams, 1)), 0);

    int loads = prof.chaseLoads + prof.streamLoads + prof.randLoads +
        (prof.farEvery > 0 ? 1 : 0);
    slotsPerIter = 1                                      // induction
        + loads * (1 + prof.depComputePerLoad)            // loads+dep
        + prof.indirectLoads * (2 + prof.depComputePerLoad)
        + prof.indepCompute
        + (prof.fpDivEvery > 0 ? 1 : 0)
        + (prof.storeEvery > 0 ? 1 : 0)
        + prof.condBranches
        + 1;                                              // loop-back

    newestLoadReg = int16_t((prof.fp ? isa::FirstFpReg : 0) +
                            LoadRegBase);
    pending.reserve(size_t(slotsPerIter));
}

void
SyntheticWorkload::buildChaseChain()
{
    if (prof.chaseLoads == 0)
        return;
    uint32_t nodes = uint32_t(prof.chaseBytes / 64);
    chain.resize(nodes);
    for (uint32_t i = 0; i < nodes; ++i)
        chain[i] = i;
    // Sattolo's algorithm: a single cycle covering every node, so the
    // traversal touches the whole region before repeating.
    Rng chain_rng(prof.seed * 0x9e37u + 0x7f4a7c15u);
    for (uint32_t i = nodes - 1; i > 0; --i) {
        uint32_t j = uint32_t(chain_rng.range(i));
        std::swap(chain[i], chain[j]);
    }
    chaseNode = 0;
}

uint64_t
SyntheticWorkload::storeRegionBytes() const
{
    // Streaming codes write output arrays commensurate with their
    // input streams; non-streaming codes write small result buffers.
    if (prof.streamLoads > 0)
        return std::max<uint64_t>(prof.streamBytes, 64 * 1024);
    return 64 * 1024;
}

uint64_t
SyntheticWorkload::slotPc(int slot) const
{
    return kernelPcBase + uint64_t(slot) * 4;
}

int16_t
SyntheticWorkload::nextLoadReg()
{
    int16_t base = int16_t((prof.fp ? isa::FirstFpReg : 0) +
                           LoadRegBase);
    int16_t reg = int16_t(base + loadRegIdx);
    loadRegIdx = (loadRegIdx + 1) % LoadRegCount;
    return reg;
}

int16_t
SyntheticWorkload::nextComputeReg()
{
    int16_t base = int16_t((prof.fp ? isa::FirstFpReg : 0) +
                           DepRegBase);
    int16_t reg = int16_t(base + computeRegIdx);
    computeRegIdx = (computeRegIdx + 1) % DepRegCount;
    return reg;
}

void
SyntheticWorkload::emitDepCompute(int16_t loaded_reg, int &slot)
{
    // Single-source chains: each op fully redefines its destination,
    // so a long-latency slice *ends* when its last member executes
    // (the paper's observation that short-latency redefinitions keep
    // clearing the LLBV; self-reading accumulators would instead mark
    // registers long-latency forever).
    int16_t src = loaded_reg;
    for (int d = 0; d < prof.depComputePerLoad; ++d) {
        int16_t dst = nextComputeReg();
        isa::MicroOp op;
        if (prof.fp) {
            op = (d % 2 == 0)
                ? isa::makeFpAdd(dst, src, isa::NoReg, slotPc(slot))
                : isa::makeFpMul(dst, src, isa::NoReg, slotPc(slot));
        } else {
            op = isa::makeAlu(dst, src, isa::NoReg, slotPc(slot));
        }
        pending.push_back(op);
        src = dst;
        ++slot;
    }
}

void
SyntheticWorkload::emitIteration()
{
    pending.clear();
    pendingHead = 0;
    int slot = 0;
    const int16_t fp_base = prof.fp ? isa::FirstFpReg : 0;
    const int16_t indep_base = int16_t(fp_base + IndepRegBase);

    // 1. Induction variable update; all stream/random loads hang off
    //    this one-cycle chain, so fetch-ahead exposes their MLP.
    pending.push_back(isa::makeAlu(InductionReg, InductionReg,
                                   isa::NoReg, slotPc(slot)));
    ++slot;

    // 2. Pointer chase: serial dependent loads.
    bool do_chase = prof.chaseLoads > 0 &&
        (prof.chaseEvery <= 1 || iter % uint64_t(prof.chaseEvery) == 0);
    for (int c = 0; c < prof.chaseLoads; ++c) {
        if (do_chase) {
            uint64_t addr = chaseBase + uint64_t(chaseNode) * 64;
            bool restart = prof.chaseChainLen > 0 &&
                chaseSteps >= prof.chaseChainLen;
            if (restart) {
                // Start a fresh traversal at an independent node:
                // the load's address comes from the (ready) induction
                // register, so successive chains overlap in a large
                // window instead of forming one endless serial chain.
                uint32_t nodes = uint32_t(chain.size());
                chaseNode = uint32_t(rng.range(nodes));
                addr = chaseBase + uint64_t(chaseNode) * 64;
                pending.push_back(isa::makeLoad(
                    ChaseReg, InductionReg, addr, slotPc(slot)));
                chaseSteps = 0;
            } else {
                pending.push_back(isa::makeLoad(ChaseReg, ChaseReg,
                                                addr, slotPc(slot)));
                ++chaseSteps;
            }
            chaseNode = chain[chaseNode];
            ++slot;
            newestLoadReg = ChaseReg;
            emitDepCompute(ChaseReg, slot);
        } else {
            slot += 1 + prof.depComputePerLoad;
        }
    }

    // 3. Streaming loads, round-robin over the streams.
    for (int s = 0; s < prof.streamLoads; ++s) {
        int stream = prof.numStreams ? (s % prof.numStreams) : 0;
        uint64_t addr = streamBase +
            uint64_t(stream) * streamSpacing + streamPos[stream];
        streamPos[stream] =
            (streamPos[stream] + prof.streamStride) % prof.streamBytes;
        int16_t dst = nextLoadReg();
        pending.push_back(isa::makeLoad(dst, InductionReg, addr,
                                        slotPc(slot)));
        ++slot;
        newestLoadReg = dst;
        emitDepCompute(dst, slot);
    }

    // 4. Random-access loads.
    for (int r = 0; r < prof.randLoads; ++r) {
        uint64_t addr = randBase + (rng.range(prof.randBytes) & ~7ull);
        int16_t dst = nextLoadReg();
        pending.push_back(isa::makeLoad(dst, InductionReg, addr,
                                        slotPc(slot)));
        ++slot;
        newestLoadReg = dst;
        emitDepCompute(dst, slot);
    }

    // 4a. Indirect gathers: a[b[i]] pairs — independent two-deep
    //     miss chains.
    for (int g = 0; g < prof.indirectLoads; ++g) {
        uint64_t idx_addr =
            randBase + (rng.range(prof.randBytes) & ~7ull);
        int16_t idx_dst = nextLoadReg();
        pending.push_back(isa::makeLoad(idx_dst, InductionReg,
                                        idx_addr, slotPc(slot)));
        ++slot;
        uint64_t dat_addr =
            randBase + (rng.range(prof.randBytes) & ~7ull);
        int16_t dat_dst = nextLoadReg();
        pending.push_back(isa::makeLoad(dat_dst, idx_dst, dat_addr,
                                        slotPc(slot)));
        ++slot;
        newestLoadReg = dat_dst;
        emitDepCompute(dat_dst, slot);
    }

    // 4b. Sparse far miss: an independent access far outside any
    //     cacheable footprint.
    bool far_iter = false;
    if (prof.farEvery > 0) {
        if (iter % uint64_t(prof.farEvery) == 0) {
            far_iter = true;
            uint64_t addr =
                farBase + (rng.range(prof.farBytes) & ~7ull);
            int16_t dst = nextLoadReg();
            pending.push_back(isa::makeLoad(dst, InductionReg, addr,
                                            slotPc(slot)));
            newestLoadReg = dst;
            ++slot;
            emitDepCompute(dst, slot);
        } else {
            slot += 1 + prof.depComputePerLoad;
        }
    }

    // 5. Independent compute on pool B: eight self-recurrent
    //    accumulator chains, never touching loaded values, so this
    //    code keeps high execution locality and plenty of ILP.
    for (int i = 0; i < prof.indepCompute; ++i) {
        int16_t dst =
            int16_t(indep_base + (indepRegIdx % IndepRegCount));
        ++indepRegIdx;
        isa::MicroOp op;
        if (prof.fp) {
            op = (i % 2 == 0)
                ? isa::makeFpAdd(dst, dst, dst, slotPc(slot))
                : isa::makeFpMul(dst, dst, dst, slotPc(slot));
        } else {
            op = isa::makeAlu(dst, dst, dst, slotPc(slot));
        }
        pending.push_back(op);
        ++slot;
    }

    // 6. Occasional FP divide (unpipelined unit pressure).
    if (prof.fpDivEvery > 0) {
        if (iter % uint64_t(prof.fpDivEvery) == 0) {
            int16_t dst = int16_t(indep_base);
            pending.push_back(isa::makeFpDiv(dst, dst,
                                             int16_t(indep_base + 1),
                                             slotPc(slot)));
        }
        ++slot;
    }

    // 7. Occasional store to an output stream.
    if (prof.storeEvery > 0) {
        if (iter % uint64_t(prof.storeEvery) == 0) {
            uint64_t addr = storeBase + storePos;
            storePos = (storePos + 64) % storeRegionBytes();
            int16_t data = int16_t(fp_base + DepRegBase);
            pending.push_back(isa::makeStore(InductionReg, data, addr,
                                             slotPc(slot)));
        }
        ++slot;
    }

    // 8. Conditional branches. In far-miss iterations the branch
    //    consumes the missed value with elevated randomness — the
    //    paper's worst case, a misprediction that depends on uncached
    //    data and squashes the whole runahead window.
    for (int b = 0; b < prof.condBranches; ++b) {
        double rand_frac = prof.branchRandFrac;
        if (far_iter && b == 0 && prof.branchOnLoad)
            rand_frac = std::min(1.0, rand_frac * 2.5);
        bool taken;
        if (rng.chance(rand_frac)) {
            taken = rng.chance(prof.takenBias);
        } else {
            // Learnable short pattern: mostly taken with a periodic
            // not-taken pulse per static branch.
            taken = ((iter + uint64_t(b) * 5) % 16) != 0;
        }
        bool on_load = (far_iter && b == 0 && prof.branchOnLoad) ||
            (prof.branchOnLoad && rng.chance(prof.branchOnLoadFrac));
        int16_t src = on_load
            ? newestLoadReg
            : int16_t(indep_base + (b % IndepRegCount));
        // Conditional branches are modelled as non-taken-path
        // fall-throughs so the fetch template stays linear.
        pending.push_back(isa::makeBranch(src, taken,
                                          slotPc(slot + 1),
                                          slotPc(slot)));
        ++slot;
    }

    // 9. Loop-back branch: strongly biased taken, exits the inner
    //    loop every innerLoopLen iterations.
    bool back_taken = prof.innerLoopLen == 0 ||
        (iter % prof.innerLoopLen) != prof.innerLoopLen - 1;
    pending.push_back(isa::makeBranch(InductionReg, back_taken,
                                      kernelPcBase, slotPc(slot)));

    ++iter;
}

isa::MicroOp
SyntheticWorkload::next()
{
    if (pendingHead == pending.size())
        emitIteration();
    return pending[pendingHead++];
}

size_t
SyntheticWorkload::nextBlock(isa::MicroOp *out, size_t n)
{
    // Same stream as n calls to next(), amortising the per-call
    // overhead: generate whole iterations, then copy them out in runs.
    size_t produced = 0;
    while (produced < n) {
        if (pendingHead == pending.size())
            emitIteration();
        size_t take = std::min(n - produced, pending.size() - pendingHead);
        std::copy_n(pending.data() + pendingHead, take, out + produced);
        pendingHead += take;
        produced += take;
    }
    return produced;
}

void
SyntheticWorkload::reset()
{
    rng.seed(prof.seed);
    pending.clear();
    pendingHead = 0;
    for (auto &p : streamPos)
        p = 0;
    storePos = 0;
    iter = 0;
    loadRegIdx = 0;
    computeRegIdx = 0;
    indepRegIdx = 0;
    chaseNode = 0;
    chaseSteps = 0;
    newestLoadReg = int16_t((prof.fp ? isa::FirstFpReg : 0) +
                            LoadRegBase);
}

std::vector<AddressRegion>
SyntheticWorkload::regions() const
{
    // Installed in order, so the regions meant to stay L2-resident
    // (chase and random tables) come last and survive the LRU.
    std::vector<AddressRegion> regs;
    if (prof.storeEvery > 0)
        regs.push_back({storeBase, storeRegionBytes()});
    for (int s = 0; s < prof.numStreams && prof.streamLoads > 0; ++s) {
        regs.push_back({streamBase + uint64_t(s) * streamSpacing,
                        prof.streamBytes});
    }
    if (prof.chaseLoads > 0)
        regs.push_back({chaseBase, prof.chaseBytes});
    if (prof.randLoads > 0)
        regs.push_back({randBase, prof.randBytes});
    return regs;
}

WorkloadPtr
makeWorkload(const std::string &name)
{
    return std::make_unique<SyntheticWorkload>(profileByName(name));
}

WorkloadPtr
makeWorkload(const WorkloadProfile &profile)
{
    return std::make_unique<SyntheticWorkload>(profile);
}

} // namespace kilo::wload
