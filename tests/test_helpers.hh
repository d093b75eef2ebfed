/**
 * @file
 * Shared test fixtures: a programmable workload that loops over a
 * fixed micro-op vector, plus tiny builders for common scenarios.
 */

#pragma once

#include <string>
#include <vector>

#include "src/isa/micro_op.hh"
#include "src/wload/workload.hh"

namespace kilo::test
{

/** Endless loop over a fixed op sequence (PCs patched per element). */
class VectorWorkload : public wload::Workload
{
  public:
    explicit VectorWorkload(std::vector<isa::MicroOp> op_seq,
                            std::string name = "vector")
        : ops(std::move(op_seq)), label(std::move(name))
    {
        for (size_t i = 0; i < ops.size(); ++i) {
            if (ops[i].pc == 0)
                ops[i].pc = 0x1000 + i * 4;
        }
    }

    isa::MicroOp
    next() override
    {
        isa::MicroOp op = ops[pos];
        pos = (pos + 1) % ops.size();
        return op;
    }

    const std::string &name() const override { return label; }
    bool isFp() const override { return false; }
    void reset() override { pos = 0; }

  private:
    std::vector<isa::MicroOp> ops;
    std::string label;
    size_t pos = 0;
};

/** A chain of dependent single-cycle ALU ops (serial, IPC -> 1). */
inline std::vector<isa::MicroOp>
serialChain()
{
    return {
        isa::makeAlu(1, 1, isa::NoReg),
    };
}

/** Independent ALU ops on distinct registers (IPC -> width). */
inline std::vector<isa::MicroOp>
independentOps(int n)
{
    std::vector<isa::MicroOp> ops;
    for (int i = 0; i < n; ++i)
        ops.push_back(isa::makeAlu(int16_t(1 + i), isa::NoReg,
                                   isa::NoReg));
    return ops;
}

} // namespace kilo::test
