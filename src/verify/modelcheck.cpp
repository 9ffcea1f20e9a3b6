#include "verify/modelcheck.hpp"

#include <algorithm>
#include <sstream>

#include "common/rng.hpp"
#include "protect/shared_ecc_array.hpp"
#include "verify/auditor.hpp"
#include "verify/golden.hpp"

namespace aeep::verify {

namespace {

/// Deterministic payload word for a one-byte value seed.
u64 value_word(u8 value) {
  u64 z = static_cast<u64>(value) + 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 29)) * 0xFF51AFD7ED558CCDull;
  z = (z ^ (z >> 32)) * 0xC4CEB9FE1A85EC53ull;
  return z ^ (z >> 30);
}

char hex_digit(unsigned v) {
  return static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10));
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string encode_ops(std::span<const Op> ops) {
  std::ostringstream os;
  bool first = true;
  for (const Op& op : ops) {
    if (!first) os << ',';
    first = false;
    switch (op.kind) {
      case Op::Kind::kRead:
        os << 'r' << op.line;
        break;
      case Op::Kind::kWrite:
        os << 'w' << op.line << '.' << static_cast<unsigned>(op.word) << ':'
           << hex_digit(op.value >> 4) << hex_digit(op.value & 0xF);
        break;
      case Op::Kind::kTick:
        os << 't';
        break;
    }
  }
  return os.str();
}

std::optional<std::vector<Op>> decode_ops(const std::string& text) {
  std::vector<Op> ops;
  std::size_t i = 0;
  const auto parse_uint = [&](u64 limit) -> std::optional<u64> {
    if (i >= text.size() || text[i] < '0' || text[i] > '9')
      return std::nullopt;
    u64 v = 0;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
      v = v * 10 + static_cast<u64>(text[i] - '0');
      if (v > limit) return std::nullopt;
      ++i;
    }
    return v;
  };
  while (i < text.size()) {
    Op op;
    const char c = text[i++];
    if (c == 'r') {
      op.kind = Op::Kind::kRead;
      const auto line = parse_uint(0xFFFF);
      if (!line) return std::nullopt;
      op.line = static_cast<u16>(*line);
    } else if (c == 'w') {
      op.kind = Op::Kind::kWrite;
      const auto line = parse_uint(0xFFFF);
      if (!line || i >= text.size() || text[i] != '.') return std::nullopt;
      ++i;
      const auto word = parse_uint(63);
      if (!word || i >= text.size() || text[i] != ':') return std::nullopt;
      ++i;
      if (i + 1 >= text.size()) return std::nullopt;
      const int hi = hex_value(text[i]);
      const int lo = hex_value(text[i + 1]);
      if (hi < 0 || lo < 0) return std::nullopt;
      i += 2;
      op.line = static_cast<u16>(*line);
      op.word = static_cast<u8>(*word);
      op.value = static_cast<u8>((hi << 4) | lo);
    } else if (c == 't') {
      op.kind = Op::Kind::kTick;
    } else {
      return std::nullopt;
    }
    ops.push_back(op);
    if (i < text.size()) {
      if (text[i] != ',') return std::nullopt;
      ++i;
    }
  }
  return ops;
}

std::string ModelCheckConfig::scheme_label() const {
  if (!label.empty()) return label;
  std::string s = protect::to_string(scheme);
  if (scheme == protect::SchemeKind::kSharedEccArray)
    s += "(k=" + std::to_string(entries_per_set) + ")";
  if (inject_faults) s += "+faults";
  return s;
}

namespace {

/// One harness instance: L2 + shadow golden memory + attached auditor.
struct Harness {
  mem::MemoryStore memory;
  mem::SplitTransactionBus bus{{8, 20}};
  protect::ProtectedL2 l2;
  GoldenMemory golden;
  Auditor auditor;
  Xorshift64Star fault_rng;
  Cycle now = 0;

  explicit Harness(const ModelCheckConfig& config)
      : l2(make_l2_config(config), bus, memory),
        auditor(l2, {config.audit_every, 16}),
        fault_rng(config.seed ^ 0xFA17FA17FA17FA17ull) {}

  static protect::L2Config make_l2_config(const ModelCheckConfig& config) {
    protect::L2Config cfg;
    cfg.geometry = config.geometry;
    cfg.geometry.validate();
    cfg.hit_latency = 4;
    cfg.scheme = config.scheme;
    cfg.ecc_entries_per_set = config.entries_per_set;
    cfg.cleaning_interval = config.cleaning_interval;
    cfg.cleaning_policy = config.cleaning_policy;
    cfg.maintain_codes = true;
    cfg.recovery.check_on_access = config.inject_faults;
    cfg.recovery.due_policy = protect::DuePolicy::kDropRefetch;
    cfg.scheme_factory = config.scheme_factory;
    return cfg;
  }
};

/// Flip one live stored bit (data, parity or ECC) of a random valid line,
/// then immediately heal it through the online recovery path by touching
/// the line. Single-bit by construction, so a correct scheme must recover.
bool inject_and_heal(Harness& h, const ModelCheckConfig& config) {
  cache::Cache& cache = h.l2.cache_model();
  const cache::CacheGeometry& geom = cache.geometry();
  std::vector<std::pair<u64, unsigned>> candidates;
  for (u64 set = 0; set < geom.num_sets(); ++set)
    for (unsigned way = 0; way < geom.ways; ++way)
      if (cache.meta(set, way).valid && !cache.is_retired(set, way))
        candidates.emplace_back(set, way);
  if (candidates.empty()) return false;
  const auto [set, way] =
      candidates[h.fault_rng.next_below(candidates.size())];

  protect::ProtectionScheme& scheme = h.l2.scheme();
  auto data = cache.data(set, way);
  auto par = scheme.parity_words(set, way);
  auto ecc = scheme.ecc_words(set, way);
  const bool dirty = cache.meta(set, way).dirty;
  unsigned targets[3];
  unsigned num_targets = 0;
  targets[num_targets++] = 0;  // data is always live
  // Parity faults only on clean lines: parity is the clean-line detection
  // mechanism. A dirty line validates through SECDED, so a flipped parity
  // bit there would sit stale until the next write — not a healable fault.
  if (!par.empty() && !dirty) targets[num_targets++] = 1;
  if (!ecc.empty()) targets[num_targets++] = 2;
  switch (targets[h.fault_rng.next_below(num_targets)]) {
    case 0: {
      const u64 w = h.fault_rng.next_below(data.size());
      data[w] ^= u64{1} << h.fault_rng.next_below(64);
      break;
    }
    case 1:
      par[h.fault_rng.next_below(par.size())] ^= 1;
      break;
    default: {
      const u64 w = h.fault_rng.next_below(ecc.size());
      ecc[w] ^= static_cast<u8>(1u << h.fault_rng.next_below(8));
      break;
    }
  }
  (void)config;
  // Heal: the demand access validates (check_on_access) and repairs via
  // SECDED correction or parity re-fetch before the next cross-check.
  h.now += 1;
  h.l2.read(h.now, cache.line_addr(set, way));
  return true;
}

/// Compare every word of the address universe against the golden model,
/// whether it lives in the cache or in the memory store.
std::optional<std::string> find_divergence(Harness& h,
                                           const ModelCheckConfig& config) {
  const unsigned words = config.geometry.words_per_line();
  for (unsigned l = 0; l < config.address_lines; ++l) {
    const Addr base = static_cast<Addr>(l) * config.geometry.line_bytes;
    const cache::ProbeResult pr = h.l2.cache_model().probe(base);
    for (unsigned w = 0; w < words; ++w) {
      const Addr addr = base + 8 * w;
      const u64 expected = h.golden.read(addr);
      const u64 actual = pr.hit ? h.l2.cache_model().data(pr.set, pr.way)[w]
                                : h.memory.read_word(addr);
      if (actual != expected) {
        std::ostringstream os;
        os << "line " << l << " word " << w << " ("
           << (pr.hit ? "cached" : "in memory") << ") = 0x" << std::hex
           << actual << ", golden 0x" << expected;
        return os.str();
      }
    }
  }
  return std::nullopt;
}

void execute_op(Harness& h, const ModelCheckConfig& config, const Op& op) {
  const unsigned words = config.geometry.words_per_line();
  const unsigned line =
      config.address_lines ? op.line % config.address_lines : 0;
  const Addr base = static_cast<Addr>(line) * config.geometry.line_bytes;
  switch (op.kind) {
    case Op::Kind::kRead:
      h.now += 3;
      h.l2.read(h.now, base);
      break;
    case Op::Kind::kWrite: {
      h.now += 3;
      const unsigned w = op.word % words;
      std::vector<u64> payload(words, 0);
      payload[w] = value_word(op.value);
      h.l2.write(h.now, base, u64{1} << w, payload);
      h.golden.write(base + 8 * w, payload[w]);
      break;
    }
    case Op::Kind::kTick:
      h.now += 101;
      break;
  }
  h.l2.tick(h.now);
}

}  // namespace

RunReport run_sequence(const ModelCheckConfig& config,
                       std::span<const Op> ops) {
  Harness h(config);
  RunReport report;

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const u64 before = h.auditor.total_violations();
    execute_op(h, config, ops[i]);
    if (config.inject_faults && config.fault_every != 0 &&
        (i + 1) % config.fault_every == 0) {
      if (inject_and_heal(h, config)) ++report.faults_injected;
    }
    ++report.ops_run;

    if (h.auditor.total_violations() > before) {
      report.ok = false;
      report.failure = {i, "invariant", h.auditor.report()};
      break;
    }
    if (auto div = find_divergence(h, config)) {
      report.ok = false;
      report.failure = {i, "divergence", *div};
      break;
    }
  }

  report.audits = h.auditor.audits_run();
  for (unsigned c = 0; c < protect::kNumWbCauses; ++c)
    report.wb[c] = h.l2.wb_count(static_cast<protect::WbCause>(c));
  if (auto* shared = dynamic_cast<protect::SharedEccArrayScheme*>(
          &h.l2.scheme()))
    report.ecc_entry_evictions = shared->ecc_entry_evictions();
  report.cache = h.l2.cache_model().stats();
  return report;
}

std::vector<Op> random_ops(const ModelCheckConfig& config, u64 seed,
                           std::size_t count) {
  Xorshift64Star rng(seed);
  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op op;
    const u64 roll = rng.next_below(100);
    if (roll < 45) {
      op.kind = Op::Kind::kRead;
      op.line = static_cast<u16>(rng.next_below(config.address_lines));
    } else if (roll < 90) {
      op.kind = Op::Kind::kWrite;
      op.line = static_cast<u16>(rng.next_below(config.address_lines));
      op.word = static_cast<u8>(
          rng.next_below(config.geometry.words_per_line()));
      op.value = static_cast<u8>(rng.next());
    } else {
      op.kind = Op::Kind::kTick;
    }
    ops.push_back(op);
  }
  return ops;
}

std::vector<Op> shrink(const ModelCheckConfig& config,
                       std::vector<Op> failing) {
  const auto fails = [&](const std::vector<Op>& seq) {
    return !run_sequence(config, seq).ok;
  };
  if (!fails(failing)) return failing;  // precondition violated; keep as-is

  std::size_t chunk = std::max<std::size_t>(1, failing.size() / 2);
  unsigned budget = 2000;  // bound the number of re-runs
  while (budget > 0) {
    bool removed = false;
    for (std::size_t start = 0;
         start + chunk <= failing.size() && budget > 0;) {
      std::vector<Op> candidate;
      candidate.reserve(failing.size() - chunk);
      candidate.insert(candidate.end(), failing.begin(),
                       failing.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(
          candidate.end(),
          failing.begin() + static_cast<std::ptrdiff_t>(start + chunk),
          failing.end());
      --budget;
      if (fails(candidate)) {
        failing = std::move(candidate);
        removed = true;  // retry same start against the shorter sequence
      } else {
        start += chunk;
      }
    }
    if (chunk == 1 && !removed) break;
    chunk = std::max<std::size_t>(1, chunk / 2);
  }
  return failing;
}

DiffReport run_differential(const ModelCheckConfig& base,
                            std::span<const Op> ops) {
  DiffReport diff;
  // Fault sites depend on scheme-specific storage, so injections would
  // perturb each scheme's access stream differently; the differential
  // cross-check is only meaningful fault-free.
  ModelCheckConfig cfg = base;
  cfg.inject_faults = false;
  cfg.scheme_factory = nullptr;

  const protect::SchemeKind kinds[3] = {protect::SchemeKind::kUniformEcc,
                                        protect::SchemeKind::kNonUniform,
                                        protect::SchemeKind::kSharedEccArray};
  for (const protect::SchemeKind kind : kinds) {
    cfg.scheme = kind;
    cfg.label.clear();
    diff.runs.push_back(run_sequence(cfg, ops));
    if (!diff.runs.back().ok) {
      diff.ok = false;
      diff.detail = std::string(protect::to_string(kind)) +
                    " failed standalone checks: " +
                    diff.runs.back().failure->detail;
      return diff;
    }
  }

  const RunReport& uni = diff.runs[0];
  const RunReport& non = diff.runs[1];
  const RunReport& sha = diff.runs[2];
  std::ostringstream os;
  const auto expect_eq = [&](u64 a, u64 b, const char* what) {
    if (a != b) {
      diff.ok = false;
      os << what << " diverged (" << a << " vs " << b << "); ";
    }
  };
  // Allocation behaviour is scheme-independent: hit/miss/fill streams must
  // be bit-identical across all three schemes.
  for (const RunReport* r : {&non, &sha}) {
    expect_eq(uni.cache.reads, r->cache.reads, "reads");
    expect_eq(uni.cache.writes, r->cache.writes, "writes");
    expect_eq(uni.cache.read_hits, r->cache.read_hits, "read hits");
    expect_eq(uni.cache.write_hits, r->cache.write_hits, "write hits");
    expect_eq(uni.cache.fills, r->cache.fills, "fills");
  }
  // Neither baseline scheme ever forces write-backs, so their traffic is
  // identical, cause by cause.
  for (unsigned c = 0; c < protect::kNumWbCauses; ++c)
    expect_eq(uni.wb[c], non.wb[c], "uniform vs non-uniform write-backs");
  expect_eq(uni.wb[static_cast<unsigned>(protect::WbCause::kEccEviction)], 0,
            "uniform ECC-WB (must be zero)");
  // §3.3 accounting: every shared-scheme ECC eviction is one forced WB.
  expect_eq(
      sha.wb[static_cast<unsigned>(protect::WbCause::kEccEviction)],
      sha.ecc_entry_evictions, "shared ECC-WB vs entry evictions");
  if (!diff.ok) diff.detail = os.str();
  return diff;
}

ExhaustiveReport exhaustive_check(const ModelCheckConfig& config,
                                  unsigned alphabet_lines, unsigned len) {
  // Alphabet: read each line, write word 0 of each line (value = line+1),
  // and a time jump — 2*alphabet_lines + 1 symbols.
  std::vector<Op> alphabet;
  for (unsigned l = 0; l < alphabet_lines; ++l)
    alphabet.push_back({Op::Kind::kRead, static_cast<u16>(l), 0, 0});
  for (unsigned l = 0; l < alphabet_lines; ++l)
    alphabet.push_back({Op::Kind::kWrite, static_cast<u16>(l), 0,
                        static_cast<u8>(l + 1)});
  alphabet.push_back({Op::Kind::kTick, 0, 0, 0});

  ExhaustiveReport report;
  std::vector<std::size_t> index(len, 0);
  std::vector<Op> seq(len);
  for (;;) {
    for (unsigned i = 0; i < len; ++i) seq[i] = alphabet[index[i]];
    ++report.sequences;
    report.ops += len;
    if (!run_sequence(config, seq).ok) {
      report.counterexample = seq;
      return report;
    }
    // Odometer increment.
    unsigned pos = 0;
    while (pos < len && ++index[pos] == alphabet.size()) {
      index[pos] = 0;
      ++pos;
    }
    if (pos == len) break;
  }
  return report;
}

}  // namespace aeep::verify
