// Conventional uniform protection: SECDED ECC on every line, clean or dirty
// (the POWER4 / Itanium L2 arrangement the paper uses as its baseline).
#pragma once

#include <vector>

#include "protect/scheme.hpp"

namespace aeep::protect {

class UniformEccScheme final : public ProtectionScheme {
 public:
  explicit UniformEccScheme(cache::Cache& cache);

  std::string name() const override { return "uniform-ecc"; }

  void on_fill(u64 set, unsigned way) override;
  void on_write_applied(u64 set, unsigned way, u64 word_mask) override;
  void on_writeback(u64 /*set*/, unsigned /*way*/) override {}
  void on_evict(u64 /*set*/, unsigned /*way*/) override {}

  ReadCheck check_read(u64 set, unsigned way,
                       const mem::MemoryStore& memory) override;

  std::span<u8> parity_words(u64, unsigned) override { return {}; }
  std::span<u8> ecc_words(u64 set, unsigned way) override;

 private:
  void encode_words(u64 set, unsigned way, u64 word_mask);

  unsigned words_;
  std::vector<u8> ecc_;  ///< one check byte per data word, every line
};

}  // namespace aeep::protect
