#include "mem/memory_store.hpp"

#include <algorithm>
#include <cassert>

#include "common/bitops.hpp"

namespace aeep::mem {

u64 MemoryStore::pristine_word(Addr addr) {
  // splitmix64 of the word address: cheap, deterministic, well mixed.
  u64 z = (addr >> 3) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

u64 MemoryStore::read_word(Addr addr) const {
  u64 value = 0;
  read_line(addr, {&value, 1});
  return value;
}

void MemoryStore::write_word(Addr addr, u64 value) {
  write_line(addr, {&value, 1});
}

void MemoryStore::read_line(Addr base, std::span<u64> out) const {
  assert(base % 8 == 0);
  for (std::size_t i = 0; i < out.size();) {
    const Addr addr = base + 8 * i;
    const unsigned first = (addr >> 3) % kBlockWords;
    const std::size_t n = std::min<std::size_t>(kBlockWords - first,
                                                out.size() - i);
    const auto it = blocks_.find(addr >> kBlockShift);
    if (it == blocks_.end()) {
      for (std::size_t k = 0; k < n; ++k)
        out[i + k] = pristine_word(addr + 8 * k);
    } else {
      std::copy_n(it->second.words.begin() + first, n, out.begin() + i);
    }
    i += n;
  }
}

void MemoryStore::write_line(Addr base, std::span<const u64> in) {
  assert(base % 8 == 0);
  for (std::size_t i = 0; i < in.size();) {
    const Addr addr = base + 8 * i;
    const unsigned first = (addr >> 3) % kBlockWords;
    const std::size_t n = std::min<std::size_t>(kBlockWords - first,
                                                in.size() - i);
    const auto [it, fresh] = blocks_.try_emplace(addr >> kBlockShift);
    Block& block = it->second;
    if (fresh) {
      const Addr block_base = addr - 8 * first;
      for (unsigned w = 0; w < kBlockWords; ++w)
        block.words[w] = pristine_word(block_base + 8 * w);
    }
    std::copy_n(in.begin() + i, n, block.words.begin() + first);
    const u8 mask = static_cast<u8>(((1u << n) - 1) << first);
    dirty_words_ += popcount64(static_cast<u8>(mask & ~block.written));
    block.written |= mask;
    i += n;
  }
}

}  // namespace aeep::mem
