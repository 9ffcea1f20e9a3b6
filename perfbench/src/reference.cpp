// Host-speed reference. The benchmark shares its host with other tenants,
// and the host's speed per CPU second drifts by up to ~1.5x over minutes
// (CPU time tracks wall time within ~1%, so the drift is slower CPU, not
// lost CPU). A fixed kernel that lives here, not in src/, is timed in
// slices between the measured phases; the median slice says how fast the
// host was during the run, and the end-to-end times are scaled by it to a
// nominal host.
#include <time.h>

#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

using aeep::u32;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Accesses per slice per thread (~50 ms on the development VM).
constexpr u64 kSliceAccesses = 1'500'000;

}  // namespace

/// An 8-way LRU tag store of 64K sets (6 MiB of tags and stamps, three
/// times a host core's L2, so it runs out of the shared L3 as the
/// simulator's larger cache models do) driven by an xorshift address
/// stream: 3/4 of accesses near the last miss, the rest anywhere in 1 GiB.
/// Of the kernels tried, this kind followed the simulator's rate across
/// the host's slow and fast spells; an L2-resident one did worse.
class TagModel {
 public:
  static constexpr u64 kSets = u64{1} << 16;
  static constexpr unsigned kWays = 8;
  static constexpr double kBytes =
      static_cast<double>(kSets * kWays * (sizeof(u64) + sizeof(u32)));

  explicit TagModel(u64 seed) : rng_(seed | 1) {}

  void run(u64 accesses) {
    for (u64 i = 0; i < accesses; ++i) {
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      const u64 line = (rng_ & 3) ? hot_ + ((rng_ >> 2) & 255)
                                  : (rng_ >> 8) & ((u64{1} << 24) - 1);
      u64* t = &tags_[(line % kSets) * kWays];
      u32* s = &stamp_[(line % kSets) * kWays];
      const u64 tag = line / kSets;
      unsigned victim = 0;
      bool hit = false;
      for (unsigned w = 0; w < kWays; ++w) {
        if (t[w] == tag) {
          s[w] = ++now_;
          hit = true;
          break;
        }
        if (s[w] < s[victim]) victim = w;
      }
      if (hit) continue;
      t[victim] = tag;
      s[victim] = ++now_;
      hot_ = line;
    }
  }

 private:
  std::vector<u64> tags_ = std::vector<u64>(kSets * kWays, ~u64{0});
  std::vector<u32> stamp_ = std::vector<u32>(kSets * kWays, 0);
  u64 rng_;
  u64 hot_ = 0;
  u32 now_ = 0;
};

HostReference::HostReference(unsigned threads) {
  for (unsigned i = 0; i < threads; ++i)
    models_.push_back(
        std::make_unique<TagModel>(0x9e3779b97f4a7c15ull * (i + 1)));
  if (threads == 0) return;
  slice();  // first touch of the tables; not kept
  speeds_.clear();
}

HostReference::~HostReference() = default;

void HostReference::slice() {
  std::vector<double> rate(models_.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < models_.size(); ++i)
    threads.emplace_back([this, i, &rate] {
      const double c0 = thread_cpu_s();
      models_[i]->run(kSliceAccesses);
      const double c1 = thread_cpu_s();
      rate[i] = static_cast<double>(kSliceAccesses) / std::max(c1 - c0, 1e-9);
    });
  for (auto& t : threads) t.join();
  double sum = 0;
  for (const double r : rate) sum += r;
  speeds_.push_back(sum / static_cast<double>(rate.size()) / kNominalRate);
}

void HostReference::sample_for(double seconds) {
  if (models_.empty()) return;
  const auto t0 = aeep::metrics::now();
  do {
    slice();
  } while (seconds_since(t0) < seconds);
}

double HostReference::speed() const {
  return speeds_.empty() ? 1.0 : median(speeds_);
}

double HostReference::footprint_mb() const {
  return static_cast<double>(models_.size()) * TagModel::kBytes /
         (1024.0 * 1024.0);
}

}  // namespace perfbench
