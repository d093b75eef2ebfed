#include "src/isa/micro_op.hh"

#include <cstdio>

#include "src/util/logging.hh"

namespace kilo::isa
{

int
opLatency(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: return 1;
      case OpClass::IntMul: return 3;
      case OpClass::FpAdd:  return 2;
      case OpClass::FpMul:  return 4;
      case OpClass::FpDiv:  return 12;
      case OpClass::Load:   return 0;   // determined by the hierarchy
      case OpClass::Store:  return 1;
      case OpClass::Branch: return 1;
      case OpClass::Nop:    return 1;
    }
    KILO_PANIC("unknown OpClass");
}

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: return "alu";
      case OpClass::IntMul: return "mul";
      case OpClass::FpAdd:  return "fadd";
      case OpClass::FpMul:  return "fmul";
      case OpClass::FpDiv:  return "fdiv";
      case OpClass::Load:   return "load";
      case OpClass::Store:  return "store";
      case OpClass::Branch: return "br";
      case OpClass::Nop:    return "nop";
    }
    KILO_PANIC("unknown OpClass");
}

bool
isFpClass(OpClass cls)
{
    return cls == OpClass::FpAdd || cls == OpClass::FpMul ||
           cls == OpClass::FpDiv;
}

std::string
MicroOp::toString() const
{
    char buf[128];
    if (isMem()) {
        std::snprintf(buf, sizeof(buf), "%s r%d <- [r%d] @%#lx",
                      opClassName(cls), dst, src1,
                      (unsigned long)effAddr);
    } else if (isBranch()) {
        std::snprintf(buf, sizeof(buf), "br r%d %s -> %#lx", src1,
                      taken ? "T" : "N", (unsigned long)target);
    } else {
        std::snprintf(buf, sizeof(buf), "%s r%d <- r%d, r%d",
                      opClassName(cls), dst, src1, src2);
    }
    return buf;
}

std::string
MicroOpHot::toString() const
{
    char buf[128];
    if (isMem()) {
        std::snprintf(buf, sizeof(buf), "%s r%d <- [r%d] @%#lx",
                      opClassName(cls), dst, src1,
                      (unsigned long)effAddr);
    } else if (isBranch()) {
        std::snprintf(buf, sizeof(buf), "br r%d", src1);
    } else {
        std::snprintf(buf, sizeof(buf), "%s r%d <- r%d, r%d",
                      opClassName(cls), dst, src1, src2);
    }
    return buf;
}

} // namespace kilo::isa
