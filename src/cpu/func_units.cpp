#include "cpu/func_units.hpp"

namespace aeep::cpu {

Cycle FuncUnitPool::try_issue(OpClass cls, Cycle now) {
  unsigned first = 0;  // the class's first unit in next_free_
  UnitClass c = kIntAlu;
  switch (cls) {
    case OpClass::kIntMul:
      first = kIntAlu.count;
      c = kIntMul;
      break;
    case OpClass::kFpAlu:
      first = kIntAlu.count + kIntMul.count;
      c = kFpAlu;
      break;
    case OpClass::kFpMul:
      first = kIntAlu.count + kIntMul.count + kFpAlu.count;
      c = kFpMul;
      break;
    case OpClass::kIntAlu:
    case OpClass::kLoad:
    case OpClass::kStore:
    case OpClass::kBranch:
      break;
  }
  for (unsigned u = first; u < first + c.count; ++u) {
    if (next_free_[u] <= now) {
      next_free_[u] = now + 1;  // pipelined: a new op every cycle
      return now + c.latency;
    }
  }
  return 0;
}

}  // namespace aeep::cpu
