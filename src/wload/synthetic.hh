/**
 * @file
 * The synthetic kernel generator: turns a WorkloadProfile into an
 * endless, deterministic micro-op stream.
 *
 * Each "iteration" emits a fixed template of micro-ops (induction
 * update, chase loads, stream loads, random loads, dependent and
 * independent compute, an occasional store and divide, conditional
 * branches, loop-back branch). Program counters are stable per
 * template slot so branch predictors see a real static branch set.
 */

#pragma once

#include <vector>

#include "src/util/rng.hh"
#include "src/wload/profile.hh"
#include "src/wload/workload.hh"

namespace kilo::wload
{

/** Workload generator driven by a WorkloadProfile. */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(const WorkloadProfile &profile);

    isa::MicroOp next() override;
    size_t nextBlock(isa::MicroOp *out, size_t n) override;
    const std::string &name() const override { return prof.name; }
    bool isFp() const override { return prof.fp; }
    void reset() override;
    std::vector<AddressRegion> regions() const override;

    /** Profile in use. */
    const WorkloadProfile &profile() const { return prof; }

    /** Number of micro-ops in one full iteration template. */
    int opsPerIteration() const { return slotsPerIter; }

  private:
    void emitIteration();
    uint64_t storeRegionBytes() const;
    uint64_t slotPc(int slot) const;
    int16_t nextLoadReg();
    int16_t nextComputeReg();
    void emitDepCompute(int16_t loaded_reg, int &slot);
    void buildChaseChain();

    WorkloadProfile prof;
    Rng rng;
    /** The current iteration's ops; [pendingHead, end) are still to
     *  be handed out. Refilled only once drained, and reserved to
     *  slotsPerIter up front, so it never reallocates. */
    std::vector<isa::MicroOp> pending;
    size_t pendingHead = 0;

    /** Pointer-chase permutation (node index -> next node index). */
    std::vector<uint32_t> chain;
    uint32_t chaseNode = 0;
    int chaseSteps = 0;   ///< steps taken in the current chain

    std::vector<uint64_t> streamPos;
    uint64_t storePos = 0;
    uint64_t iter = 0;
    int loadRegIdx = 0;
    int computeRegIdx = 0;
    int indepRegIdx = 0;
    int16_t newestLoadReg;
    int slotsPerIter = 0;

    /** Address-space bases for the regions. @{ */
    static constexpr uint64_t chaseBase = 0x10000000ull;
    static constexpr uint64_t streamBase = 0x40000000ull;
    static constexpr uint64_t streamSpacing = 0x04000000ull;
    static constexpr uint64_t randBase = 0x80000000ull;
    static constexpr uint64_t storeBase = 0xc0000000ull;
    static constexpr uint64_t farBase = 0x100000000ull;
    static constexpr uint64_t kernelPcBase = 0x10000ull;
    /** @} */
};

/** Construct the generator for a named benchmark. */
WorkloadPtr makeWorkload(const std::string &name);

/** Construct a generator from an explicit profile. */
WorkloadPtr makeWorkload(const WorkloadProfile &profile);

} // namespace kilo::wload

