// Functional-unit pool (Table 1: 4 integer ALUs, 1 integer mult/div,
// 1 FP adder, 1 FP mult/div). Units are pipelined: each can accept one op
// per cycle; results appear after the class latency.
#pragma once

#include <array>

#include "common/types.hpp"
#include "cpu/uop.hpp"

namespace aeep::cpu {

class FuncUnitPool {
 public:
  /// Table 1's units of one class, and the cycles until their result.
  struct UnitClass {
    unsigned count;
    Cycle latency;
  };
  static constexpr UnitClass kIntAlu{4, 1};
  static constexpr UnitClass kIntMul{1, 3};
  static constexpr UnitClass kFpAlu{1, 2};
  static constexpr UnitClass kFpMul{1, 4};

  /// Try to claim a unit for `cls` at `now`. Returns the result-ready cycle,
  /// or 0 if no unit of that class is free this cycle. (Loads/stores/branches
  /// use an integer ALU slot for address generation / compare.)
  Cycle try_issue(OpClass cls, Cycle now);

 private:
  /// Per unit, the first cycle it accepts an op: the integer ALUs, then the
  /// integer multiplier, the FP adder and the FP multiplier.
  std::array<Cycle, kIntAlu.count + kIntMul.count + kFpAlu.count +
                        kFpMul.count>
      next_free_{};
};

}  // namespace aeep::cpu
