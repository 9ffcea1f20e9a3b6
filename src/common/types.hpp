// Fundamental types shared by every module of the AEEP simulator.
//
// The simulator is a timing model: addresses are byte addresses in a flat
// physical address space, cycles are absolute processor cycles starting at
// zero when a run begins.
#pragma once

#include <cstdint>
#include <cstddef>

namespace aeep {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Byte address in the simulated physical address space.
using Addr = u64;

/// Absolute processor cycle count.
using Cycle = u64;

inline constexpr u64 KiB = 1024;
inline constexpr u64 MiB = 1024 * KiB;

/// An invalid / "no address" sentinel.
inline constexpr Addr kNoAddr = ~Addr{0};

/// A cycle that never comes: "no event pending" for next-event queries.
inline constexpr Cycle kNever = ~Cycle{0};

}  // namespace aeep
