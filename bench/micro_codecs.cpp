// Self-timed microbenchmarks for the line-codec hot path: words/second for
// parity, byte-parity and SECDED line encode + decode through the
// scratch-buffer API, with heap allocations counted per call via a global
// operator-new hook. The scratch path must be allocation-free — the bench
// exits non-zero if it ever allocates, which is the repo's executable proof
// of the "zero allocations per line encode/decode" claim.
//
// Also times the batched SWAR whole-line paths against the word-at-a-time
// virtual-dispatch baseline (the pre-batching LineCodec inner loop),
// verifies they agree bit-for-bit, and — with --min-secded-speedup=X —
// exits non-zero unless batched SECDED encode is at least X times faster
// than word-at-a-time. CI pins X=2.
//
//   micro_codecs [--lines=65536] [--json=out.json] [--min-secded-speedup=X]
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "json_reporter.hpp"
#include "common/rng.hpp"
#include "ecc/line_codec.hpp"
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
  bench::reject_unknown_flags(args);

  std::printf("=== micro_codecs: line codec throughput ===\n");
  std::printf("64B lines (8 words), %llu lines per timed loop\n\n",
              static_cast<unsigned long long>(lines));

  bench::JsonReporter json("micro_codecs", opt, 1);
  json.set_config("lines", JsonValue::number(lines));
  json.set_config("line_bytes", JsonValue::number(u64{kLineBytes}));

  const ecc::ParityCodec parity;
  const ecc::ByteParityCodec byte_parity;
  const ecc::SecdedCodec secded;
  const std::vector<std::pair<const char*, const ecc::WordCodec*>> codecs = {
      {"parity", &parity},
      {"byte-parity", &byte_parity},
      {"secded", &secded},
  };

  // One shared input line, re-randomised per call from a cheap LCG so the
  // codec cannot specialise on constant data.
  Xorshift64Star rng(7);
  std::vector<u64> data(kWords);
  for (auto& w : data) w = rng.next();

  TextTable table({"codec", "op", "API", "words/s", "allocs/call"});
  bool scratch_allocated = false;
  bool equivalence_broken = false;
  double secded_speedup = 0.0;

  for (const auto& [name, codec] : codecs) {
    const ecc::LineCodec lc(*codec, kLineBytes);
    std::vector<u64> check(kWords), out(kWords);

    struct Case {
      const char* op;
      const char* api;
      Measurement m;
      bool is_scratch;
    };
    std::vector<Case> cases;

    cases.push_back({"encode", "scratch",
                     timed(lines, kWords,
                           [&](u64 i) {
                             data[i % kWords] ^= i | 1;
                             lc.encode(data, check);
                             return check[0];
                           }),
                     true});
    // Batched SWAR line encode vs the word-at-a-time virtual-dispatch
    // baseline (what LineCodec::encode did before batching). Same input
    // mutation schedule, so the words/s figures are directly comparable.
    std::vector<u64> scalar_check(kWords);
    const Measurement scalar_m = timed(lines, kWords, [&](u64 i) {
      data[i % kWords] ^= i | 1;
      for (unsigned w = 0; w < kWords; ++w)
        scalar_check[w] = codec->encode(data[w]);
      return scalar_check[0];
    });
    cases.push_back({"encode", "scalar-words", scalar_m, false});
    const Measurement batched_m = timed(lines, kWords, [&](u64 i) {
      data[i % kWords] ^= i | 1;
      codec->encode_batch(data, check);
      return check[0];
    });
    cases.push_back({"encode", "batched", batched_m, true});
    if (std::string(name) == "secded" && scalar_m.words_per_sec > 0.0)
      secded_speedup = batched_m.words_per_sec / scalar_m.words_per_sec;

    // The two paths must agree bit-for-bit on the final mutated line (and
    // the batched mismatch scan must see the agreement as all-clean).
    codec->encode_batch(data, check);
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

    // `check` now matches the mutated payload, so the decode loop runs the
    // clean path (the hot case in the simulator).
    cases.push_back({"decode", "scratch",
                     timed(lines, kWords,
                           [&](u64) {
                             lc.decode(data, check, out);
                             return out[0];
                           }),
                     true});

    for (const auto& c : cases) {
      table.add_row({name, c.op, c.api, rate(c.m.words_per_sec),
                     TextTable::fmt(c.m.allocs_per_call, 2)});
      if (c.is_scratch && c.m.allocs_per_call > 0.0) scratch_allocated = true;
      JsonValue metrics = JsonValue::object();
      metrics.set("words_per_sec", JsonValue::number(c.m.words_per_sec));
      metrics.set("allocs_per_call", JsonValue::number(c.m.allocs_per_call));
      json.add_cell(name, std::string(c.op) + ":" + c.api, std::move(metrics));
    }
  }

  std::printf("%s", table.render().c_str());
  std::printf("\nscratch-API allocations per encode/decode: %s\n",
              scratch_allocated ? "NONZERO (regression!)" : "zero");
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
  return scratch_allocated ? 1 : 0;
}
