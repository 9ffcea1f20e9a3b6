// Self-timed microbenchmarks for the codec calls the protection schemes
// make on the L2 access path: words/second for parity and SECDED line
// encode (encode_batch), sparse re-encode (encode_batch_masked), clean scan
// (mismatch_mask) and, for SECDED, repair of a line carrying a single-bit
// error (correct_line), with heap allocations counted per call via a global
// operator-new hook. Every call must be allocation-free — the bench exits
// non-zero if one ever allocates, which is the repo's executable proof of
// the "zero allocations per line encode/decode" claim.
//
// Also times batched line encode against the word-at-a-time
// virtual-dispatch baseline, verifies they agree bit-for-bit, and — with
// --min-secded-speedup=X — exits non-zero unless batched SECDED encode is
// at least X times faster than word-at-a-time. CI pins X=2.
//
//   micro_codecs [--lines=65536] [--json=out.json] [--min-secded-speedup=X]
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "json_reporter.hpp"
#include "common/rng.hpp"
#include "ecc/parity.hpp"
#include "ecc/secded.hpp"

namespace {
std::atomic<aeep::u64> g_allocations{0};

// Counting hook: every heap allocation in the process bumps the counter.
// The timed loops read it before/after, so any allocation inside a codec
// call is attributed to that call.
void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace aeep;

namespace {

constexpr unsigned kLineBytes = 64;
constexpr unsigned kWords = kLineBytes / 8;

struct Measurement {
  double words_per_sec = 0.0;
  double allocs_per_call = 0.0;
  u64 checksum = 0;  ///< defeats dead-code elimination; also printed
};

template <typename Body>
Measurement timed(u64 calls, u64 words_per_call, Body&& body) {
  Measurement m;
  const u64 allocs_before = g_allocations.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (u64 i = 0; i < calls; ++i) m.checksum += body(i);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - start;
  const u64 allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  m.words_per_sec = dt.count() > 0.0
                        ? static_cast<double>(calls * words_per_call) /
                              dt.count()
                        : 0.0;
  m.allocs_per_call =
      static_cast<double>(allocs) / static_cast<double>(calls);
  return m;
}

std::string rate(double words_per_sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fM", words_per_sec / 1e6);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  const u64 lines = args.get_u64("lines", u64{1} << 16);
  const double min_secded_speedup =
      args.get_double("min-secded-speedup", 0.0);
  reject_unknown_flags(args);

  std::printf("=== micro_codecs: line codec throughput ===\n");
  std::printf("64B lines (8 words), %llu lines per timed loop\n\n",
              static_cast<unsigned long long>(lines));

  bench::JsonReporter json("micro_codecs", opt, 1);
  json.set_config("lines", JsonValue::number(lines));
  json.set_config("line_bytes", JsonValue::number(u64{kLineBytes}));

  const ecc::ParityCodec parity;
  const ecc::SecdedCodec secded;
  const std::vector<std::pair<const char*, const ecc::WordCodec*>> codecs = {
      {"parity", &parity},
      {"secded", &secded},
  };

  // One shared input line, re-randomised per call from a cheap LCG so the
  // codec cannot specialise on constant data.
  Xorshift64Star rng(7);
  std::vector<u64> data(kWords);
  for (auto& w : data) w = rng.next();

  TextTable table({"codec", "call", "words/s", "allocs/call"});
  bool allocated = false;
  bool equivalence_broken = false;
  double secded_speedup = 0.0;

  for (const auto& [name, codec] : codecs) {
    std::vector<u64> check(kWords), scalar_check(kWords);
    std::vector<std::pair<const char*, Measurement>> rows;

    // Batched line encode vs the word-at-a-time virtual-dispatch baseline.
    // Same input mutation schedule, so the words/s figures are directly
    // comparable.
    const Measurement scalar_m = timed(lines, kWords, [&](u64 i) {
      data[i % kWords] ^= i | 1;
      for (unsigned w = 0; w < kWords; ++w)
        scalar_check[w] = codec->encode(data[w]);
      return scalar_check[0];
    });
    rows.emplace_back("encode per word", scalar_m);
    const Measurement batched_m = timed(lines, kWords, [&](u64 i) {
      data[i % kWords] ^= i | 1;
      codec->encode_batch(data, check);
      return check[0];
    });
    rows.emplace_back("encode_batch", batched_m);
    if (codec == &secded && scalar_m.words_per_sec > 0.0)
      secded_speedup = batched_m.words_per_sec / scalar_m.words_per_sec;

    // A one-word store re-encodes one word; `check` stays in step with the
    // line throughout.
    rows.emplace_back("encode_batch_masked", timed(lines, 1, [&](u64 i) {
      const unsigned w = static_cast<unsigned>(i % kWords);
      data[w] ^= i | 1;
      codec->encode_batch_masked(data, u64{1} << w, check);
      return check[w];
    }));

    // The batched paths must agree bit-for-bit with the scalar encoder on
    // the final mutated line, and the clean scan must see the agreement.
    for (unsigned w = 0; w < kWords; ++w) {
      if (check[w] != codec->encode(data[w])) {
        std::fprintf(stderr,
                     "%s: batched encode diverges from scalar at word %u\n",
                     name, w);
        equivalence_broken = true;
      }
    }
    if (codec->mismatch_mask(data, check) != 0) {
      std::fprintf(stderr, "%s: mismatch_mask flags a clean line\n", name);
      equivalence_broken = true;
    }

    // The clean scan every validated read starts with.
    rows.emplace_back("mismatch_mask", timed(lines, kWords, [&](u64) {
      return codec->mismatch_mask(data, check);
    }));

    if (codec == &secded) {
      // The repair path: every call injects one single-bit error and
      // correct_line must put the line back exactly.
      const std::vector<u64> golden = data;
      rows.emplace_back("correct_line", timed(lines, kWords, [&](u64 i) {
        data[i % kWords] ^= u64{1} << (i % 64);
        return secded.correct_line(data, check).corrected_mask;
      }));
      if (data != golden || secded.mismatch_mask(data, check) != 0) {
        std::fprintf(stderr, "%s: correct_line left a line damaged\n", name);
        equivalence_broken = true;
      }
    }

    for (const auto& [call, m] : rows) {
      table.add_row({name, call, rate(m.words_per_sec),
                     TextTable::fmt(m.allocs_per_call, 2)});
      if (m.allocs_per_call > 0.0) allocated = true;
      JsonValue metrics = JsonValue::object();
      metrics.set("words_per_sec", JsonValue::number(m.words_per_sec));
      metrics.set("allocs_per_call", JsonValue::number(m.allocs_per_call));
      json.add_cell(name, call, std::move(metrics));
    }
  }

  std::printf("%s", table.render().c_str());
  std::printf("\nallocations per codec call: %s\n",
              allocated ? "NONZERO (regression!)" : "zero");
  std::printf("batched vs scalar equivalence: %s\n",
              equivalence_broken ? "BROKEN (regression!)" : "bit-exact");
  std::printf("secded batched/scalar encode speedup: %.2fx", secded_speedup);
  if (min_secded_speedup > 0.0)
    std::printf(" (gate: >=%.2fx)", min_secded_speedup);
  std::printf("\n");
  json.set_config("secded_batched_speedup",
                  JsonValue::number(secded_speedup));
  if (!json.write(opt.json_path)) return 1;
  if (equivalence_broken) return 1;
  if (min_secded_speedup > 0.0 && secded_speedup < min_secded_speedup) {
    std::fprintf(stderr,
                 "secded batched encode speedup %.2fx is below the %.2fx "
                 "gate\n",
                 secded_speedup, min_secded_speedup);
    return 1;
  }
  return allocated ? 1 : 0;
}
