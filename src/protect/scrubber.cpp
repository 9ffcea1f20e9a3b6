#include "protect/scrubber.hpp"

#include <cassert>

namespace aeep::protect {

Scrubber::Scrubber(ProtectedL2& l2) : l2_(&l2) {
  assert(l2.config().maintain_codes &&
         "scrubbing requires real check bits (maintain_codes)");
}

void Scrubber::scrub_set(u64 set) {
  cache::Cache& cache = l2_->cache_model();
  for (unsigned way = 0; way < l2_->config().geometry.ways; ++way) {
    if (!cache.meta(set, way).valid) continue;
    const ReadCheck rc = l2_->scheme().check_read(set, way, l2_->memory());
    ++stats_.lines_scrubbed;
    stats_.words_corrected += rc.words_corrected;
    switch (rc.outcome) {
      case ReadOutcome::kRefetched:
        ++stats_.lines_refetched;
        break;
      case ReadOutcome::kUncorrectable:
        ++stats_.uncorrectable;
        break;
      default:
        break;
    }
  }
}

void Scrubber::scrub_all() {
  for (u64 set = 0; set < l2_->config().geometry.num_sets(); ++set)
    scrub_set(set);
}

}  // namespace aeep::protect
