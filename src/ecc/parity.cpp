#include "ecc/parity.hpp"

#include "common/bitops.hpp"

namespace aeep::ecc {

u64 ParityCodec::encode(u64 data) const { return parity64(data); }

DecodeResult ParityCodec::decode(u64 data, u64 check) const {
  DecodeResult r;
  r.data = data;
  r.check = check & 1u;
  const u64 expect = encode(data);
  r.status = (expect == (check & 1u)) ? DecodeStatus::kOk
                                      : DecodeStatus::kDetectedError;
  return r;
}

void ParityCodec::encode_batch(std::span<const u64> data,
                               std::span<u64> check_out) const {
  assert(check_out.size() >= data.size());
  for (std::size_t w = 0; w < data.size(); ++w)
    check_out[w] = parity64(data[w]);
}

u64 ParityCodec::mismatch_mask(std::span<const u64> data,
                               std::span<const u64> check) const {
  assert(data.size() <= 64 && check.size() >= data.size());
  u64 mm = 0;
  for (std::size_t w = 0; w < data.size(); ++w)
    mm |= static_cast<u64>(parity64(data[w]) != (check[w] & 1u)) << w;
  return mm;
}

}  // namespace aeep::ecc
