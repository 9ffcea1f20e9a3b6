// Non-uniform protection (§3.1): parity over every line, SECDED ECC only
// while a line is dirty. ECC storage here is *unbounded* (one slot per
// line), so this scheme never forces write-backs — it isolates the paper's
// first idea from the §3.3 ECC-array capacity constraint and is used to
// measure how much ECC storage dirty lines would actually need.
#pragma once

#include <vector>

#include "protect/scheme.hpp"

namespace aeep::protect {

class NonUniformScheme final : public ProtectionScheme {
 public:
  explicit NonUniformScheme(cache::Cache& cache);

  std::string name() const override { return "non-uniform-parity+ecc"; }

  void on_fill(u64 set, unsigned way) override;
  void on_write_applied(u64 set, unsigned way, u64 word_mask) override;
  void on_writeback(u64 set, unsigned way) override;
  void on_evict(u64 set, unsigned way) override;

  ReadCheck check_read(u64 set, unsigned way,
                       const mem::MemoryStore& memory) override;

  std::span<u64> parity_words(u64 set, unsigned way) override;
  std::span<u64> ecc_words(u64 set, unsigned way) override;

 private:
  void encode_parity(u64 set, unsigned way, u64 word_mask);
  void encode_ecc(u64 set, unsigned way, u64 word_mask);

  unsigned words_;
  std::vector<u64> parity_;          ///< 1 live bit per data word, all lines
  std::vector<u64> ecc_;             ///< valid only while the line is dirty
  std::vector<u8> ecc_valid_;        ///< per line
};

}  // namespace aeep::protect
