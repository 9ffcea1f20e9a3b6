// Round-trip and damage tests for the L2 access-trace format (src/trace/):
// every malformed input class — truncation, CRC damage, wrong magic, wrong
// version — must surface as the documented TraceErrorKind, never a crash or
// a silently wrong decode (this suite also runs under ASan/UBSan in CI).
// Ends with a small execution-vs-replay cross-validation smoke.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "mem/memory_store.hpp"
#include "sim/experiment.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/validate.hpp"
#include "trace/writer.hpp"

namespace aeep::trace {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + "aeep_trace_test_" + name + ".aeept";
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spew(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TraceErrorKind kind_of(const std::string& path) {
  try {
    TraceReader reader(path);
    TraceEvent e;
    while (reader.next(e)) {
    }
  } catch (const TraceError& err) {
    return err.kind();
  }
  ADD_FAILURE() << path << ": expected a TraceError";
  return TraceErrorKind::kIo;
}

/// A deterministic synthetic stream with all four event kinds and
/// jumpy addresses (exercises the zigzag delta coder both directions).
std::vector<TraceEvent> synthetic_events(u64 n) {
  std::vector<TraceEvent> events;
  events.reserve(n);
  Cycle tick = 5;
  for (u64 i = 0; i < n; ++i) {
    TraceEvent e;
    switch (i % 4) {
      case 0: e.kind = EventKind::kFetch; e.addr = 0x400000 + i * 64; break;
      case 1: e.kind = EventKind::kLoad; e.addr = 0x10000000 - i * 4096; break;
      case 2:
        e.kind = EventKind::kStore;
        e.addr = 0x7fff0000 + (i % 7) * 8;
        e.value = 0xdeadbeef00ull + i;
        break;
      case 3: e.kind = EventKind::kStatsReset; break;
    }
    e.tick = tick;
    tick += (i % 3);  // repeated ticks are legal; regressions are not
    events.push_back(e);
  }
  return events;
}

void write_trace(const std::string& path, const std::vector<TraceEvent>& events,
                 u32 chunk_events = kDefaultChunkEvents) {
  TraceWriter writer(path, 64, chunk_events);
  for (const auto& e : events) writer.append(e);
  TraceSummary s;
  s.end_tick = events.empty() ? 0 : events.back().tick + 1;
  s.committed = 123;
  s.loads = 45;
  s.stores = 6;
  writer.finish(s);
}

std::vector<TraceEvent> read_all(const std::string& path) {
  TraceReader reader(path);
  std::vector<TraceEvent> events;
  TraceEvent e;
  while (reader.next(e)) events.push_back(e);
  return events;
}

TEST(TraceRoundTrip, EmptyTrace) {
  const std::string path = temp_path("empty");
  write_trace(path, {});
  TraceReader reader(path);
  TraceEvent e;
  EXPECT_FALSE(reader.next(e));
  EXPECT_EQ(reader.events_read(), 0u);
  EXPECT_EQ(reader.summary().events, 0u);
  EXPECT_EQ(reader.summary().committed, 123u);
  EXPECT_EQ(reader.line_bytes(), 64u);
  // next() after the footer keeps returning false (idempotent end).
  EXPECT_FALSE(reader.next(e));
  std::remove(path.c_str());
}

TEST(TraceRoundTrip, SingleAccess) {
  const std::string path = temp_path("single");
  TraceEvent in;
  in.kind = EventKind::kStore;
  in.tick = 1'000'000;
  in.addr = 0xdead0008;
  in.value = 42;
  write_trace(path, {in});
  const auto events = read_all(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], in);
  std::remove(path.c_str());
}

TEST(TraceRoundTrip, MultiChunk) {
  const std::string path = temp_path("multichunk");
  const auto in = synthetic_events(1000);
  write_trace(path, in, /*chunk_events=*/64);  // forces ~16 chunks
  TraceReader reader(path);
  std::vector<TraceEvent> out;
  TraceEvent e;
  while (reader.next(e)) out.push_back(e);
  EXPECT_EQ(out, in);
  EXPECT_GT(reader.chunks_read(), 10u);
  EXPECT_EQ(reader.summary().events, in.size());
  std::remove(path.c_str());
}

TEST(TraceRoundTrip, WriterRejectsTimeTravel) {
  const std::string path = temp_path("timetravel");
  TraceWriter writer(path, 64);
  TraceEvent e;
  e.tick = 100;
  writer.append(e);
  e.tick = 99;
  try {
    writer.append(e);
    FAIL() << "expected kCorrupt for a non-monotonic tick";
  } catch (const TraceError& err) {
    EXPECT_EQ(err.kind(), TraceErrorKind::kCorrupt);
  }
  std::remove(path.c_str());
}

TEST(TraceDamage, MissingFileIsIoError) {
  try {
    TraceReader reader(temp_path("does_not_exist"));
    FAIL() << "expected kIo";
  } catch (const TraceError& err) {
    EXPECT_EQ(err.kind(), TraceErrorKind::kIo);
  }
}

TEST(TraceDamage, EmptyFileIsTruncated) {
  const std::string path = temp_path("zerobytes");
  spew(path, {});
  try {
    TraceReader reader(path);
    FAIL() << "expected kTruncated";
  } catch (const TraceError& err) {
    EXPECT_EQ(err.kind(), TraceErrorKind::kTruncated);
  }
  std::remove(path.c_str());
}

TEST(TraceDamage, MissingFooterIsTruncated) {
  const std::string path = temp_path("nofooter");
  write_trace(path, synthetic_events(100), /*chunk_events=*/32);
  auto bytes = slurp(path);
  // Chop the footer (tag + sizes + payload sit at the end of the file).
  ASSERT_GT(bytes.size(), 8u);
  bytes.resize(bytes.size() - 8);
  spew(path, bytes);
  EXPECT_EQ(kind_of(path), TraceErrorKind::kTruncated);
  std::remove(path.c_str());
}

TEST(TraceDamage, TruncationMidChunkIsTruncated) {
  const std::string path = temp_path("midchunk");
  write_trace(path, synthetic_events(1000), /*chunk_events=*/64);
  auto bytes = slurp(path);
  bytes.resize(bytes.size() / 2);  // lands inside a data chunk
  spew(path, bytes);
  EXPECT_EQ(kind_of(path), TraceErrorKind::kTruncated);
  std::remove(path.c_str());
}

TEST(TraceDamage, FlippedPayloadByteIsCorrupt) {
  const std::string path = temp_path("crc");
  write_trace(path, synthetic_events(200), /*chunk_events=*/64);
  auto bytes = slurp(path);
  // Header is 16 bytes; first data chunk: tag u8 + 3 u32s, payload at +29.
  const std::size_t target = 16 + 1 + 12 + 3;
  ASSERT_LT(target, bytes.size());
  bytes[target] = static_cast<char>(bytes[target] ^ 0x40);
  spew(path, bytes);
  EXPECT_EQ(kind_of(path), TraceErrorKind::kCorrupt);
  std::remove(path.c_str());
}

TEST(TraceDamage, VersionMismatchIsBadVersion) {
  const std::string path = temp_path("version");
  write_trace(path, synthetic_events(10));
  auto bytes = slurp(path);
  bytes[4] = static_cast<char>(kTraceVersion + 1);  // version u32 LE at +4
  spew(path, bytes);
  try {
    TraceReader reader(path);
    FAIL() << "expected kBadVersion";
  } catch (const TraceError& err) {
    EXPECT_EQ(err.kind(), TraceErrorKind::kBadVersion);
  }
  std::remove(path.c_str());
}

TEST(TraceDamage, WrongMagicIsBadMagic) {
  const std::string path = temp_path("magic");
  write_trace(path, synthetic_events(10));
  auto bytes = slurp(path);
  bytes[0] = 'X';
  spew(path, bytes);
  try {
    TraceReader reader(path);
    FAIL() << "expected kBadMagic";
  } catch (const TraceError& err) {
    EXPECT_EQ(err.kind(), TraceErrorKind::kBadMagic);
  }
  std::remove(path.c_str());
}

TEST(TraceDamage, GarbageAfterFooterIsCorrupt) {
  const std::string path = temp_path("trailing");
  write_trace(path, synthetic_events(10));
  auto bytes = slurp(path);
  bytes.push_back('!');
  spew(path, bytes);
  EXPECT_EQ(kind_of(path), TraceErrorKind::kCorrupt);
  std::remove(path.c_str());
}

// The whole point of the subsystem: a replayed trace reproduces the
// execution-driven run's protection metrics. Small run, full pipeline
// (capture -> replay -> metric diff) through the CI gate's own harness.
TEST(TraceValidate, ReplayMatchesExecution) {
  sim::ExperimentOptions eo;
  eo.instructions = 20'000;
  eo.warmup_instructions = 5'000;
  eo.scheme = protect::SchemeKind::kSharedEccArray;
  eo.cleaning_interval = u64{64} << 10;
  const sim::SystemConfig cfg = sim::make_system_config("gzip", eo);
  const std::string path = temp_path("validate");
  const ValidationReport rep = cross_validate(cfg, path, 0.01);
  EXPECT_TRUE(rep.pass) << rep.to_text();
  EXPECT_GT(rep.trace_events, 0u);
  for (const auto& m : rep.metrics)
    EXPECT_EQ(m.exec, m.replay) << m.name << " (self-replay must be exact)";
  std::remove(path.c_str());
}

TEST(TraceValidate, RelativeErrorEdgeCases) {
  EXPECT_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_EQ(relative_error(1.0, 1.0), 0.0);
  EXPECT_NEAR(relative_error(100.0, 99.0), 0.01, 1e-12);
  EXPECT_EQ(relative_error(0.0, 5.0), 1.0);
}

// A valid header+footer with zero events is a legal capture (a run whose
// warm-up consumed everything), not a damaged file: replay must produce
// empty metrics, never throw.
TEST(TraceReplay, HeaderOnlyTraceReplaysToEmptyMetrics) {
  const std::string path = temp_path("replay_empty");
  write_trace(path, {});
  ReplayConfig rc;
  rc.hierarchy = sim::make_system_config("gzip", {}).hierarchy;
  rc.trace_path = path;
  ReplayDriver driver(std::move(rc));
  const sim::RunResult r = driver.run();
  EXPECT_EQ(driver.events_replayed(), 0u);
  EXPECT_EQ(r.l2.accesses(), 0u);
  EXPECT_EQ(r.wb_total(), 0u);
  EXPECT_EQ(r.avg_dirty_fraction, 0.0);
  // The capture summary still travels: committed/loads/stores come from
  // the footer even when no events do.
  EXPECT_EQ(r.core.committed, 123u);
  std::remove(path.c_str());
}

// A trace whose event count is an exact multiple of the chunk size ends
// with a completely full final chunk — the footer sits exactly on a CRC
// boundary. Every event must replay; nothing may be mistaken for
// truncation.
TEST(TraceReplay, FinalChunkExactlyAtCrcBoundary) {
  const std::string path = temp_path("replay_boundary");
  const auto events = synthetic_events(16);
  write_trace(path, events, /*chunk_events=*/8);  // 2 chunks, both full
  {
    TraceReader reader(path);
    TraceEvent e;
    u64 n = 0;
    while (reader.next(e)) ++n;
    EXPECT_EQ(n, 16u);
    EXPECT_EQ(reader.chunks_read(), 2u);
  }
  ReplayConfig rc;
  rc.hierarchy = sim::make_system_config("gzip", {}).hierarchy;
  rc.trace_path = path;
  ReplayDriver driver(std::move(rc));
  const sim::RunResult r = driver.run();
  EXPECT_EQ(driver.events_replayed(), 16u);
  EXPECT_EQ(r.core.committed, 123u);
  std::remove(path.c_str());
}

// Replay fires tick(T) before every access at T, even when the hierarchy
// reports no tick work then, as the core does by stepping every cycle it
// accesses memory in: an access reads the clock the last tick stamped.
// Here an intermittent stuck cell corrupts a clean line, then goes quiet at
// a period boundary; the first access after it finds the parity error and
// re-fetches the line, and the re-fetch's re-assert must see the cell quiet.
// With a stale clock it would re-corrupt the copy until retries ran out.
TEST(TraceReplay, AccessCyclesTickAsIfEveryCycleWereTicked) {
  const Addr line = 0x40000;
  const u64 bit = 3;
  const bool stored = (mem::MemoryStore().read_word(line) >> bit) & 1;
  sim::ExperimentOptions eo;
  eo.scheme = protect::SchemeKind::kNonUniform;  // clean lines under parity
  eo.strikes_enabled = true;                     // stuck cells only
  eo.stuck_faults = {{fault::FaultTarget::kData,
                      cache::kL2Geometry.set_index(line), 0, bit, !stored, 0,
                      1'000}};
  const sim::HierarchyConfig cfg =
      sim::make_system_config("gzip", eo).hierarchy;
  ASSERT_EQ(cfg.strikes.stuck_reassert_interval, 64u);

  // Stuck for [0, 1000), re-asserted every 64 cycles; quiet from 1000 and
  // next re-asserted at 1024. The fetch misses the L1I and reads the line
  // from the L2.
  std::vector<TraceEvent> events(2);
  events[0].kind = EventKind::kLoad;
  events[0].tick = 10;
  events[0].addr = line;
  events[1].kind = EventKind::kFetch;
  events[1].tick = 1'010;
  events[1].addr = line;
  const std::string path = temp_path("replay_access_tick");
  write_trace(path, events);

  ReplayConfig rc;
  rc.hierarchy = cfg;
  rc.trace_path = path;
  const sim::RunResult got = ReplayDriver(std::move(rc)).run();
  std::remove(path.c_str());

  sim::MemoryHierarchy every(cfg);
  Cycle ticked = 0;
  for (const TraceEvent& e : events) {
    while (ticked <= e.tick) every.tick(ticked++);
    if (e.kind == EventKind::kLoad)
      (void)every.load(e.tick, e.addr);
    else
      (void)every.fetch(e.tick, e.addr);
  }
  const Cycle end = events.back().tick + 1;  // write_trace's end_tick
  while (ticked < end) every.tick(ticked++);
  every.l2().finalize(end);
  sim::RunResult want = sim::hierarchy_result(every);
  want.core = got.core;  // the trace's summary, not the hierarchy's

  EXPECT_EQ(got, want);
  EXPECT_GT(want.strikes.stuck_reasserts, 0u);
  EXPECT_EQ(want.recovery.refetched, 1u);
  EXPECT_EQ(want.recovery.retry_exhausted, 0u);
}

}  // namespace
}  // namespace aeep::trace
