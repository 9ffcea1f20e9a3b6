#include "verify/auditor.hpp"

#include <set>
#include <sstream>

#include "protect/shared_ecc_array.hpp"

namespace aeep::verify {

std::string Violation::to_string() const {
  std::ostringstream os;
  os << rule << " at set=" << set << " way=" << way << " op#" << op_seq;
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

Auditor::Auditor(protect::ProtectedL2& l2, AuditorConfig config)
    : l2_(&l2), config_(config) {
  l2_->set_audit_hook([this](Cycle now) { on_op(now); });
}

Auditor::~Auditor() { l2_->set_audit_hook(nullptr); }

void Auditor::on_op(Cycle /*now*/) {
  ++ops_seen_;
  if (config_.check_every != 0 && ops_seen_ % config_.check_every == 0)
    audit();
}

void Auditor::add(std::string rule, u64 set, unsigned way,
                  std::string detail) {
  ++total_violations_;
  ++found_this_audit_;
  if (violations_.size() < config_.max_recorded)
    violations_.push_back(
        {std::move(rule), set, way, ops_seen_, std::move(detail)});
}

void Auditor::audit_line(u64 set, unsigned way) {
  const cache::Cache& cache = l2_->cache_model();
  const cache::CacheLineMeta& m = cache.meta(set, way);

  if (cache.is_retired(set, way)) {
    if (m.valid)
      add("retired-slot-valid", set, way, "fused-off way holds a valid line");
    return;
  }
  if (!m.valid) {
    if (m.dirty) add("invalid-line-dirty", set, way, "");
    return;
  }

  if (m.written && !m.dirty)
    add("written-implies-dirty", set, way,
        "written bit set on a clean line (§3.2)");

  if (!l2_->config().maintain_codes) return;
  protect::ProtectionScheme& scheme = l2_->scheme();
  const auto data = cache.data(set, way);
  const bool poisoned = l2_->recovery().poisoned(set, way);

  if (m.dirty && scheme.ecc_words(set, way).empty())
    add("dirty-line-uncovered", set, way,
        "dirty line has no ECC words (scheme=" + scheme.name() + ")");

  // A poisoned line keeps its corrupt payload on purpose.
  if (poisoned) return;

  const auto par = scheme.parity_words(set, way);
  for (std::size_t w = 0; w < par.size(); ++w) {
    if (par[w] != parity_.encode(data[w])) {
      std::ostringstream os;
      os << "stored parity of word " << w << " is stale";
      add("code-mismatch-parity", set, way, os.str());
    }
  }
  const auto check = scheme.ecc_words(set, way);
  for (std::size_t w = 0; w < check.size(); ++w) {
    if (check[w] != secded_.encode(data[w])) {
      std::ostringstream os;
      os << "stored ECC of word " << w << " is stale";
      add("code-mismatch-ecc", set, way, os.str());
    }
  }

  if (!m.dirty) {
    const Addr base = cache.line_addr(set, way);
    const mem::MemoryStore& memory = l2_->memory();
    for (std::size_t w = 0; w < data.size(); ++w) {
      if (data[w] != memory.read_word(base + 8 * w)) {
        std::ostringstream os;
        os << "clean line word " << w << " differs from memory at 0x"
           << std::hex << base + 8 * w;
        add("clean-line-memory-mismatch", set, way, os.str());
      }
    }
  }
}

void Auditor::audit_shared_scheme() {
  auto* shared =
      dynamic_cast<protect::SharedEccArrayScheme*>(&l2_->scheme());
  if (shared == nullptr) return;

  const cache::Cache& cache = l2_->cache_model();
  const cache::CacheGeometry& geom = cache.geometry();
  const unsigned k = shared->entries_per_set();

  for (u64 set = 0; set < geom.num_sets(); ++set) {
    const unsigned dirty = cache.count_dirty_in_set(set);
    if (dirty > k) {
      std::ostringstream os;
      os << dirty << " dirty lines with only " << k << " ECC entries (§3.3)";
      add("dirty-per-set-exceeds-k", set, 0, os.str());
    }
    std::set<int> owned;
    for (unsigned way = 0; way < geom.ways; ++way) {
      const int entry = shared->entry_of(set, way);
      const cache::CacheLineMeta& m = cache.meta(set, way);
      if (m.valid && m.dirty && entry < 0)
        add("dirty-without-entry", set, way,
            "dirty line owns no ECC entry");
      if (entry >= 0 && !(m.valid && m.dirty)) {
        std::ostringstream os;
        os << "ECC entry " << entry << " owned by a "
           << (m.valid ? "clean" : "invalid") << " line";
        add("entry-implies-dirty", set, way, os.str());
      }
      if (entry >= 0 && !owned.insert(entry).second) {
        std::ostringstream os;
        os << "ECC entry " << entry << " claimed by two ways";
        add("entry-double-owned", set, way, os.str());
      }
    }
  }
}

u64 Auditor::audit() {
  ++audits_run_;
  found_this_audit_ = 0;

  const cache::Cache& cache = l2_->cache_model();
  const cache::CacheGeometry& geom = cache.geometry();

  u64 dirty_recount = 0;
  for (u64 set = 0; set < geom.num_sets(); ++set) {
    for (unsigned way = 0; way < geom.ways; ++way) {
      audit_line(set, way);
      const cache::CacheLineMeta& m = cache.meta(set, way);
      if (m.valid && m.dirty) ++dirty_recount;
    }
  }
  if (dirty_recount != cache.dirty_count()) {
    std::ostringstream os;
    os << "incremental dirty_count=" << cache.dirty_count()
       << " but recount=" << dirty_recount;
    add("dirty-count-mismatch", 0, 0, os.str());
  }

  audit_shared_scheme();
  return found_this_audit_;
}

u64 Auditor::audit_write_buffer(const cache::WriteBuffer& wbuf) {
  found_this_audit_ = 0;
  const unsigned words = wbuf.line_bytes() / 8;
  const u64 legal_mask =
      words >= 64 ? ~u64{0} : (u64{1} << words) - 1;

  std::set<Addr> lines;
  for (std::size_t i = 0; i < wbuf.size(); ++i) {
    const cache::WriteBufferView e = wbuf.view(i);
    if (e.word_mask == 0)
      add("wbuf-empty-mask", 0, 0, "buffered entry carries no words");
    if ((e.word_mask & ~legal_mask) != 0)
      add("wbuf-mask-range", 0, 0, "word mask wider than the line");
    if (e.words.size() != words)
      add("wbuf-size-mismatch", 0, 0, "payload span mis-sized");
    if ((e.line & (wbuf.line_bytes() - 1)) != 0)
      add("wbuf-misaligned", 0, 0, "entry address not line-aligned");
    if (!lines.insert(e.line).second)
      add("wbuf-dup-line", 0, 0,
          "two entries for one line (coalescing CAM failed)");
    // The buffered line, if resident, must not sit in a fused-off way.
    const cache::ProbeResult pr = l2_->cache_model().probe(e.line);
    if (pr.hit && l2_->cache_model().is_retired(pr.set, pr.way))
      add("wbuf-targets-retired-way", pr.set, pr.way,
          "buffered line resident in a fused-off way");
  }
  if (wbuf.size() > wbuf.capacity())
    add("wbuf-overfull", 0, 0, "occupancy exceeds capacity");
  return found_this_audit_;
}

std::string Auditor::report() const {
  if (clean()) return {};
  std::ostringstream os;
  os << total_violations_ << " invariant violation(s) across " << audits_run_
     << " audit(s), " << ops_seen_ << " op(s):\n";
  for (const Violation& v : violations_) os << "  " << v.to_string() << "\n";
  if (total_violations_ > violations_.size())
    os << "  ... and " << total_violations_ - violations_.size()
       << " more (recording capped)\n";
  return os.str();
}

}  // namespace aeep::verify
