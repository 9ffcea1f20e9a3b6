// Interface through which the core reaches the memory hierarchy.
// Implemented by sim::MemoryHierarchy (L1I + L1D + write buffer + L2 + bus).
#pragma once

#include "common/types.hpp"

namespace aeep::cpu {

class MemoryInterface {
 public:
  virtual ~MemoryInterface() = default;

  /// Instruction fetch touching the block containing `pc`. Returns the
  /// cycle the block is available.
  virtual Cycle fetch(Cycle now, Addr pc) = 0;

  /// Data load. Returns the cycle the value is available.
  virtual Cycle load(Cycle now, Addr addr) = 0;

  /// Data store presented at commit (write-through path). Returns false if
  /// the write buffer is full — the caller must retry next cycle.
  virtual bool store(Cycle now, Addr addr, u64 value) = 0;

  /// Per-cycle housekeeping: write-buffer drains, L2 cleaning FSM.
  virtual void tick(Cycle now) = 0;

  /// Earliest cycle >= `now` at which tick() can change state (kNever when
  /// nothing is pending). A caller with nothing else to do may skip the
  /// ticks of the cycles before it. The default, `now`, asks to be ticked
  /// every cycle.
  virtual Cycle next_event(Cycle now) const { return now; }
};

}  // namespace aeep::cpu
