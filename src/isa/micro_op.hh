/**
 * @file
 * The synthetic micro-op ISA consumed by every core model.
 *
 * The paper evaluates Alpha binaries under SimpleScalar; this library
 * substitutes a compact trace-level ISA that carries everything the
 * timing models need: register dataflow, operation latency class,
 * effective addresses for memory operations and resolved outcomes for
 * branches. Like Alpha, an instruction reads at most two registers and
 * writes at most one, which is the property the LLRF's
 * one-READY-operand-per-instruction pre-allocation relies on.
 */

#pragma once

#include <cstdint>
#include <string>

namespace kilo::isa
{

/** Number of integer logical registers (r0..r31). */
constexpr int NumIntRegs = 32;

/** Number of floating-point logical registers (f0..f31). */
constexpr int NumFpRegs = 32;

/** Total logical register namespace; FP registers follow integer. */
constexpr int NumRegs = NumIntRegs + NumFpRegs;

/** Sentinel meaning "no register". */
constexpr int16_t NoReg = -1;

/** First FP register id in the unified namespace. */
constexpr int16_t FirstFpReg = NumIntRegs;

/** True when @p reg names a floating-point register. */
inline bool
isFpReg(int16_t reg)
{
    return reg >= FirstFpReg;
}

/** Operation classes; each maps to a functional unit type. */
enum class OpClass : uint8_t
{
    IntAlu,     ///< single-cycle integer ALU op
    IntMul,     ///< pipelined integer multiply
    FpAdd,      ///< FP add/sub/compare
    FpMul,      ///< FP multiply
    FpDiv,      ///< FP divide / sqrt (unpipelined)
    Load,       ///< memory read
    Store,      ///< memory write
    Branch,     ///< conditional or unconditional control transfer
    Nop,        ///< no-op (padding)
};

/** Number of OpClass values. */
constexpr int NumOpClasses = 9;

/** Execution latency in cycles of each op class, excluding memory. */
int opLatency(OpClass cls);

/** Human-readable mnemonic of an op class. */
const char *opClassName(OpClass cls);

/** True for op classes handled by floating-point pipelines. */
bool isFpClass(OpClass cls);

/**
 * One dynamic instruction in a trace.
 *
 * Micro-ops are produced by workload generators (src/wload) and carry
 * the *resolved* execution facts: the effective address a memory op
 * touches and the direction a branch actually goes. The timing models
 * never see values, only dataflow and these facts.
 */
struct MicroOp
{
    uint64_t pc = 0;          ///< instruction address
    OpClass cls = OpClass::Nop;
    int16_t src1 = NoReg;     ///< first source register or NoReg
    int16_t src2 = NoReg;     ///< second source register or NoReg
    int16_t dst = NoReg;      ///< destination register or NoReg
    uint64_t effAddr = 0;     ///< effective address (Load/Store)
    uint8_t memSize = 8;      ///< access size in bytes (Load/Store)
    bool taken = false;       ///< resolved direction (Branch)
    uint64_t target = 0;      ///< resolved target (Branch)

    /** Field-wise equality (trace round-trip verification). */
    bool operator==(const MicroOp &other) const = default;

    /** True for loads and stores. */
    bool isMem() const
    {
        return cls == OpClass::Load || cls == OpClass::Store;
    }

    /** True for loads. */
    bool isLoad() const { return cls == OpClass::Load; }

    /** True for stores. */
    bool isStore() const { return cls == OpClass::Store; }

    /** True for branches. */
    bool isBranch() const { return cls == OpClass::Branch; }

    /** True when routed to FP structures (FP LLIB / FP MP). */
    bool
    isFp() const
    {
        if (cls == OpClass::Load || cls == OpClass::Store)
            return dst != NoReg ? isFpReg(dst)
                                : (src2 != NoReg && isFpReg(src2));
        return isFpClass(cls);
    }

    /** Number of register sources. */
    int
    numSrcs() const
    {
        return (src1 != NoReg ? 1 : 0) + (src2 != NoReg ? 1 : 0);
    }

    /** Debug rendering, e.g. "load r3 <- [r1] @0x1000". */
    std::string toString() const;
};

/**
 * The hot subset of a MicroOp carried inside the in-flight DynInst
 * record: exactly the fields the per-cycle loops read (dataflow,
 * class, effective address). The cold facts — pc and branch target —
 * move to the DynInstCold record at fetch, and the resolved branch
 * direction is recomputed from the prediction bits
 * (taken == predTaken ^ mispredicted), keeping the hot record inside
 * one cache line.
 *
 * Implicitly convertible from MicroOp so `inst.op = op` keeps working
 * at every fetch/test site.
 */
struct MicroOpHot
{
    uint64_t effAddr = 0;     ///< effective address (Load/Store)
    int16_t src1 = NoReg;     ///< first source register or NoReg
    int16_t src2 = NoReg;     ///< second source register or NoReg
    int16_t dst = NoReg;      ///< destination register or NoReg
    OpClass cls = OpClass::Nop;
    uint8_t memSize = 8;      ///< access size in bytes (Load/Store)

    constexpr MicroOpHot() = default;

    /** Implicit: slicing a full MicroOp down to the hot fields. */
    constexpr MicroOpHot(const MicroOp &op)
        : effAddr(op.effAddr), src1(op.src1), src2(op.src2),
          dst(op.dst), cls(op.cls), memSize(op.memSize)
    {}

    /** True for loads and stores. */
    bool isMem() const
    {
        return cls == OpClass::Load || cls == OpClass::Store;
    }

    /** True for loads. */
    bool isLoad() const { return cls == OpClass::Load; }

    /** True for stores. */
    bool isStore() const { return cls == OpClass::Store; }

    /** True for branches. */
    bool isBranch() const { return cls == OpClass::Branch; }

    /** True when routed to FP structures (FP LLIB / FP MP). */
    bool
    isFp() const
    {
        if (cls == OpClass::Load || cls == OpClass::Store)
            return dst != NoReg ? isFpReg(dst)
                                : (src2 != NoReg && isFpReg(src2));
        return isFpClass(cls);
    }

    /** Number of register sources. */
    int
    numSrcs() const
    {
        return (src1 != NoReg ? 1 : 0) + (src2 != NoReg ? 1 : 0);
    }

    /** Debug rendering (no pc/target — those live in the cold
     *  record), e.g. "load r3 <- [r1] @0x1000". */
    std::string toString() const;
};

static_assert(sizeof(MicroOpHot) == 16,
              "MicroOpHot must stay a 16-byte record; the DynInst "
              "one-cache-line layout depends on it");

/** Convenience builders used by generators and unit tests. Inline:
 *  the synthetic generator builds every op it emits through them.
 *  @{ */
inline MicroOp
makeAlu(int16_t dst, int16_t src1, int16_t src2, uint64_t pc = 0)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::IntAlu;
    op.dst = dst;
    op.src1 = src1;
    op.src2 = src2;
    return op;
}

inline MicroOp
makeMul(int16_t dst, int16_t src1, int16_t src2, uint64_t pc = 0)
{
    MicroOp op = makeAlu(dst, src1, src2, pc);
    op.cls = OpClass::IntMul;
    return op;
}

inline MicroOp
makeFpAdd(int16_t dst, int16_t src1, int16_t src2, uint64_t pc = 0)
{
    MicroOp op = makeAlu(dst, src1, src2, pc);
    op.cls = OpClass::FpAdd;
    return op;
}

inline MicroOp
makeFpMul(int16_t dst, int16_t src1, int16_t src2, uint64_t pc = 0)
{
    MicroOp op = makeAlu(dst, src1, src2, pc);
    op.cls = OpClass::FpMul;
    return op;
}

inline MicroOp
makeFpDiv(int16_t dst, int16_t src1, int16_t src2, uint64_t pc = 0)
{
    MicroOp op = makeAlu(dst, src1, src2, pc);
    op.cls = OpClass::FpDiv;
    return op;
}

inline MicroOp
makeLoad(int16_t dst, int16_t addr_reg, uint64_t eff_addr,
         uint64_t pc = 0)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Load;
    op.dst = dst;
    op.src1 = addr_reg;
    op.effAddr = eff_addr;
    return op;
}

inline MicroOp
makeStore(int16_t addr_reg, int16_t data_reg, uint64_t eff_addr,
          uint64_t pc = 0)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Store;
    op.src1 = addr_reg;
    op.src2 = data_reg;
    op.effAddr = eff_addr;
    return op;
}

inline MicroOp
makeBranch(int16_t src1, bool taken, uint64_t target, uint64_t pc = 0)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Branch;
    op.src1 = src1;
    op.taken = taken;
    op.target = target;
    return op;
}

inline MicroOp
makeNop(uint64_t pc = 0)
{
    MicroOp op;
    op.pc = pc;
    op.cls = OpClass::Nop;
    return op;
}
/** @} */

} // namespace kilo::isa

