// Contention microbench for the lock-free MpmcQueue against the
// mutex+deque hand-off it replaced in the sweep pool and the job server.
// P producers push `ops` tickets, P consumers drain them; both queue
// implementations run the identical schedule, so ops/sec is directly
// comparable. The point of the numbers: under multi-producer contention the
// CAS ring keeps scaling while the mutex path serialises.
//
//   queue_contention [--ops=1000000] [--threads=N] [--capacity=1024]
//                    [--json=out.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "json_reporter.hpp"
#include "common/bitops.hpp"
#include "common/mpmc_queue.hpp"

using namespace aeep;

namespace {

/// The baseline: what WorkerQueue / JobServer::queue_ looked like before
/// this queue existed — every operation takes a mutex.
class MutexDequeQueue {
 public:
  explicit MutexDequeQueue(std::size_t capacity) : capacity_(capacity) {}

  bool try_push(std::size_t v) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (fifo_.size() >= capacity_) return false;
    fifo_.push_back(v);
    return true;
  }

  bool try_pop(std::size_t& out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (fifo_.empty()) return false;
    out = fifo_.front();
    fifo_.pop_front();
    return true;
  }

 private:
  std::size_t capacity_;
  std::mutex mutex_;
  std::deque<std::size_t> fifo_;
};

struct Result {
  double ops_per_sec = 0.0;
  u64 popped = 0;
};

template <typename Queue>
Result drive(Queue& q, unsigned producers, unsigned consumers, u64 ops) {
  std::atomic<u64> popped{0};
  std::atomic<bool> done{false};
  const u64 per_producer = ops / producers;
  const u64 total = per_producer * producers;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&q, per_producer] {
      for (u64 i = 0; i < per_producer; ++i) {
        while (!q.try_push(static_cast<std::size_t>(i)))
          std::this_thread::yield();
      }
    });
  }
  for (unsigned c = 0; c < consumers; ++c) {
    threads.emplace_back([&] {
      std::size_t v = 0;
      while (true) {
        if (q.try_pop(v)) {
          popped.fetch_add(1, std::memory_order_relaxed);
        } else if (done.load(std::memory_order_acquire)) {
          while (q.try_pop(v)) popped.fetch_add(1, std::memory_order_relaxed);
          break;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (unsigned p = 0; p < producers; ++p) threads[p].join();
  done.store(true, std::memory_order_release);
  for (unsigned c = 0; c < consumers; ++c) threads[producers + c].join();
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - start;

  Result r;
  r.popped = popped.load();
  r.ops_per_sec =
      dt.count() > 0.0 ? static_cast<double>(total) / dt.count() : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = parse_cli_or_exit(argc, argv);
  const bench::CommonOptions opt = bench::parse_common(args);
  const u64 ops = args.get_u64("ops", 1'000'000);
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned max_side = static_cast<unsigned>(
      args.get_u64("threads", hw > 2 ? hw / 2 : 1));
  const auto capacity = static_cast<std::size_t>(
      std::max<u64>(2, ceil_pow2(args.get_u64("capacity", 1024))));
  reject_unknown_flags(args);

  std::printf("=== queue_contention: MpmcQueue vs mutex+deque ===\n");
  std::printf("%llu ops per config, capacity %zu\n\n",
              static_cast<unsigned long long>(ops), capacity);

  bench::JsonReporter json("queue_contention", opt, max_side);
  json.set_config("ops", JsonValue::number(ops));
  json.set_config("capacity", JsonValue::number(u64{capacity}));

  TextTable table({"producers x consumers", "queue", "ops/s", "speedup"});
  bool lost_ops = false;

  for (unsigned side = 1; side <= max_side; side *= 2) {
    MpmcQueue<std::size_t> mpmc(capacity);
    MutexDequeQueue locked(capacity);
    const Result lock_r = drive(locked, side, side, ops);
    const Result mpmc_r = drive(mpmc, side, side, ops);
    const u64 expected = (ops / side) * side;
    if (mpmc_r.popped != expected || lock_r.popped != expected)
      lost_ops = true;
    const double speedup = lock_r.ops_per_sec > 0.0
                               ? mpmc_r.ops_per_sec / lock_r.ops_per_sec
                               : 0.0;
    const std::string label =
        std::to_string(side) + "x" + std::to_string(side);
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.2fM", lock_r.ops_per_sec / 1e6);
    table.add_row({label, "mutex-deque", rate, "1.00x"});
    std::snprintf(rate, sizeof(rate), "%.2fM", mpmc_r.ops_per_sec / 1e6);
    table.add_row({label, "mpmc", rate, TextTable::fmt(speedup, 2) + "x"});

    for (const auto& [which, r] :
         {std::pair<const char*, const Result*>{"mutex-deque", &lock_r},
          std::pair<const char*, const Result*>{"mpmc", &mpmc_r}}) {
      JsonValue metrics = JsonValue::object();
      metrics.set("ops_per_sec", JsonValue::number(r->ops_per_sec));
      metrics.set("popped", JsonValue::number(r->popped));
      json.add_cell(which, label, std::move(metrics));
    }
  }

  std::printf("%s", table.render().c_str());
  if (lost_ops) std::fprintf(stderr, "FAIL: ops lost or duplicated\n");
  if (!json.write(opt.json_path)) return 1;
  return lost_ops ? 1 : 0;
}
