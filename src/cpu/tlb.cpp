#include "cpu/tlb.hpp"

#include <stdexcept>

#include "common/bitops.hpp"

namespace aeep::cpu {

namespace {
const TlbConfig& validated(const TlbConfig& config) {
  if (config.ways == 0 || config.entries % config.ways != 0)
    throw std::invalid_argument("TLB entries must be a multiple of its ways");
  if (!is_pow2(config.entries / config.ways) || !is_pow2(config.page_bytes))
    throw std::invalid_argument(
        "TLB set count and page size must be powers of two");
  return config;
}
}  // namespace

Tlb::Tlb(const TlbConfig& config)
    : config_(validated(config)),
      page_shift_(log2_exact(config.page_bytes)),
      sets_(config.entries / config.ways) {
  entries_.resize(config.entries);
}

Cycle Tlb::access(Addr vaddr, Cycle now) {
  ++stats_.accesses;
  const Addr vpn = vaddr >> page_shift_;
  const unsigned set = static_cast<unsigned>(vpn & (sets_ - 1));
  Entry* base = entries_.data() + static_cast<std::size_t>(set) * config_.ways;

  for (unsigned w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].vpn == vpn) {
      base[w].stamp = now;
      return 0;
    }
  }
  ++stats_.misses;
  // LRU replace.
  unsigned victim = 0;
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (!base[w].valid) {
      victim = w;
      break;
    }
    if (base[w].stamp < base[victim].stamp) victim = w;
  }
  base[victim] = {vpn, now, true};
  return config_.miss_penalty;
}

void Tlb::reset() {
  for (auto& e : entries_) e = Entry{};
  stats_ = {};
}

}  // namespace aeep::cpu
