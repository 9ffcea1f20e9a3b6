// Round-trip and damage tests for the L2 access-trace format (src/trace/):
// the CRC32 and varint primitives on their own, then every malformed input
// class — truncation, CRC damage, wrong magic, wrong version — must surface
// as the documented TraceErrorKind, never a crash or a silently wrong
// decode (this suite also runs under ASan/UBSan in CI). Ends with a small
// execution-vs-replay cross-validation smoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mem/memory_store.hpp"
#include "sim/experiment.hpp"
#include "trace/io.hpp"
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

// --- CRC32 and varints ------------------------------------------------------

/// The byte-at-a-time CRC32 (reflected IEEE polynomial) that crc32() must
/// equal on every input.
u32 reference_crc32(const u8* data, std::size_t n) {
  u32 c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(TraceIo, Crc32KnownAnswers) {
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(std::vector<u8>{}), 0u);
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const u8*>(check.data()), check.size()),
            0xCBF43926u);
}

TEST(TraceIo, Crc32MatchesByteAtATimeAtEveryLengthAndAlignment) {
  Xorshift64Star rng(7);
  std::vector<u8> buf(8 + 200);
  for (u8& b : buf) b = static_cast<u8>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t n = 0; n <= 200; ++n)
      ASSERT_EQ(crc32(buf.data() + offset, n),
                reference_crc32(buf.data() + offset, n))
          << "offset " << offset << " length " << n;
}

TEST(TraceIo, VarintOfEveryLengthDecodesAtEveryDistanceFromTheEnd) {
  // The smallest and largest value of each encoded length, 1..10 bytes.
  std::vector<std::pair<u64, std::size_t>> cases;
  for (std::size_t len = 1; len <= 10; ++len) {
    const u64 lo = len == 1 ? 0 : u64{1} << (7 * (len - 1));
    const u64 hi = len == 10 ? ~u64{0} : (u64{1} << (7 * len)) - 1;
    cases.push_back({lo, len});
    cases.push_back({hi, len});
  }
  for (const auto& [value, len] : cases) {
    // Behind a 3-byte prefix, with 0..11 bytes after the varint: decodes
    // with fewer and with at least 10 bytes left.
    for (std::size_t tail = 0; tail <= 11; ++tail) {
      std::vector<u8> buf(3, 0xFF);
      put_varint(buf, value);
      ASSERT_EQ(buf.size(), 3 + len) << value;
      buf.resize(3 + len + tail, 0xFF);
      std::size_t pos = 3;
      EXPECT_EQ(get_varint(buf, pos), value) << "tail " << tail;
      EXPECT_EQ(pos, 3 + len) << "tail " << tail;
    }
  }
}

/// Decodes one varint from the start of `buf`, expecting a TraceError of
/// `kind` whose message contains `text`.
void expect_varint_error(const std::vector<u8>& buf, TraceErrorKind kind,
                         const std::string& text) {
  std::size_t pos = 0;
  try {
    get_varint(buf, pos);
    ADD_FAILURE() << "expected a TraceError";
  } catch (const TraceError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
    EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
  }
}

TEST(TraceIo, VarintErrorsKeepTheirKindAndMessage) {
  // A 10th byte above 1 carries bits past 64, with or without bytes after.
  for (const u8 tenth : {u8{0x02}, u8{0x7F}, u8{0x80}, u8{0xFF}}) {
    std::vector<u8> buf(9, 0xFF);
    buf.push_back(tenth);
    expect_varint_error(buf, TraceErrorKind::kCorrupt, "varint overflows 64 bits");
    buf.insert(buf.end(), 10, 0x00);
    expect_varint_error(buf, TraceErrorKind::kCorrupt, "varint overflows 64 bits");
  }
  // A varint cut off after 0..9 continuation bytes.
  for (std::size_t len = 0; len <= 9; ++len)
    expect_varint_error(std::vector<u8>(len, 0x80), TraceErrorKind::kTruncated,
                        "payload ends mid-varint");
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
  // Header is 24 bytes; first data chunk: tag u8 + 3 u32s, payload at +37.
  const std::size_t target = 24 + 1 + 12 + 3;
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
// execution-driven run's protection metrics exactly under the capture
// configuration. Full pipeline (capture -> replay -> metric diff) through
// the CI gate's own harness.
ValidationReport validate_cell(const char* benchmark,
                               protect::SchemeKind scheme, Cycle interval,
                               u64 instructions, u64 warmup) {
  sim::ExperimentOptions eo;
  eo.instructions = instructions;
  eo.warmup_instructions = warmup;
  eo.scheme = scheme;
  eo.cleaning_interval = interval;
  const std::string path = temp_path("validate");
  ValidationReport rep =
      cross_validate(sim::make_system_config(benchmark, eo), path);
  std::remove(path.c_str());
  return rep;
}

TEST(TraceValidate, ReplayMatchesExecution) {
  for (const char* benchmark : {"gzip", "mcf"}) {
    for (const auto scheme : {protect::SchemeKind::kUniformEcc,
                              protect::SchemeKind::kNonUniform,
                              protect::SchemeKind::kSharedEccArray}) {
      for (const Cycle interval : {Cycle{0}, Cycle{64} << 10}) {
        SCOPED_TRACE(std::string(protect::to_string(scheme)) + " @" +
                     std::to_string(interval));
        const ValidationReport rep =
            validate_cell(benchmark, scheme, interval, 20'000, 5'000);
        EXPECT_TRUE(rep.pass) << rep.to_text();
        EXPECT_GT(rep.trace_events, 0u);
      }
    }
  }
  // Without cleaning and run this long, mcf fills shared-ECC sets, so the
  // ECC-entry eviction path is compared too.
  const ValidationReport rep = validate_cell(
      "mcf", protect::SchemeKind::kSharedEccArray, 0, 200'000, 20'000);
  EXPECT_TRUE(rep.pass) << rep.to_text();
  const auto wb_ecc =
      std::find_if(rep.metrics.begin(), rep.metrics.end(),
                   [](const MetricDiff& m) { return m.name == "wb_ecc"; });
  ASSERT_NE(wb_ecc, rep.metrics.end());
  EXPECT_GT(wb_ecc->exec, 0.0);
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


// --- The L2-side stream -------------------------------------------------

/// A deterministic L2-side stream with all three op kinds: fills at both
/// offsets, drains with sparse and full masks, and a stats reset.
std::vector<L2Op> synthetic_l2_ops(u64 n) {
  std::vector<L2Op> ops;
  Cycle tick = 7;
  for (u64 i = 0; i < n; ++i) {
    L2Op op;
    op.tick = tick;
    switch (i % 5) {
      case 0:
      case 1:
        op.kind = L2OpKind::kFill;
        op.offset = i % 2 ? 1 : 31;
        op.line = 0x400000 + ((i * 7919) % 4096) * 32;
        break;
      case 2:
      case 3:
        op.kind = L2OpKind::kDrain;
        op.line = 0x10000000 - (i % 97) * 64;
        op.word_mask = i % 2 ? 0xFF : 0xA1;
        for (u64 m = op.word_mask; m != 0; m &= m - 1)
          op.words.push_back(0x9E3779B97F4A7C15ull * (i + op.words.size()));
        break;
      case 4:
        op.kind = L2OpKind::kStatsReset;
        break;
    }
    tick += i % 4;
    ops.push_back(op);
  }
  return ops;
}

TEST(TraceRoundTrip, NextYieldsExactlyTheL1EventsOfAFileWithAnL2Stream) {
  const std::string path = temp_path("both_streams");
  const auto events = synthetic_events(300);
  const auto ops = synthetic_l2_ops(200);
  {
    // Small chunks, so L1 and L2 chunks interleave in the file.
    TraceWriter writer(path, 64, /*chunk_events=*/16, /*l1_side_digest=*/0x5EED);
    for (std::size_t i = 0; i < events.size(); ++i) {
      writer.append(events[i]);
      if (i < ops.size()) writer.append_l2(ops[i]);
    }
    TraceSummary s;
    s.end_tick = events.back().tick + 1;
    s.l1_side.l1d.reads = 77;
    s.l1_side.wbuf.free_list_peak = 3;
    writer.finish(s);
  }
  TraceReader l1(path);
  EXPECT_EQ(l1.version(), kTraceVersion);
  EXPECT_TRUE(l1.has_l2_stream());
  EXPECT_EQ(l1.l1_side_digest(), 0x5EEDu);
  std::vector<TraceEvent> got_events;
  TraceEvent e;
  while (l1.next(e)) got_events.push_back(e);
  EXPECT_EQ(got_events, events);
  EXPECT_EQ(l1.summary().events, events.size());
  EXPECT_EQ(l1.summary().l2_ops, ops.size());
  EXPECT_EQ(l1.summary().l1_side.l1d.reads, 77u);
  EXPECT_EQ(l1.summary().l1_side.wbuf.free_list_peak, 3u);
  EXPECT_GT(l1.l2_chunks_read(), 10u);

  TraceReader l2(path);
  std::vector<L2Op> got_ops;
  L2Op op;
  while (l2.next_l2(op)) got_ops.push_back(op);
  EXPECT_EQ(got_ops, ops);
  EXPECT_EQ(l2.events_read(), events.size());
  EXPECT_EQ(l2.summary(), l1.summary());
  std::remove(path.c_str());
}

void put_le32(std::vector<char>& out, u32 v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_frame(std::vector<char>& out, u8 tag, const std::vector<u8>& payload,
               u32 count) {
  out.push_back(static_cast<char>(tag));
  put_le32(out, static_cast<u32>(payload.size()));
  if (tag != kFooterTag) put_le32(out, count);
  put_le32(out, crc32(payload));
  out.insert(out.end(), payload.begin(), payload.end());
}

// v1 files — 16-byte header, no L2 chunks, a five-field footer — still
// read, and replay through the L1 loop exactly as the same events do.
TEST(TraceCompat, HandAssembledV1FileReadsAndReplaysThroughTheL1Loop) {
  const auto events = synthetic_events(40);
  std::vector<u8> chunk;
  Cycle prev_tick = 0;
  Addr prev_addr = 0;
  for (const TraceEvent& ev : events) {
    chunk.push_back(static_cast<u8>(ev.kind));
    put_varint(chunk, ev.tick - prev_tick);
    prev_tick = ev.tick;
    if (ev.kind != EventKind::kStatsReset) {
      put_varint(chunk, zigzag(static_cast<i64>(ev.addr) -
                               static_cast<i64>(prev_addr)));
      prev_addr = ev.addr;
    }
    if (ev.kind == EventKind::kStore) put_varint(chunk, ev.value);
  }
  std::vector<u8> footer;
  for (const u64 v : {u64{events.back().tick + 1}, u64{123}, u64{45}, u64{6},
                      u64{events.size()}})
    put_varint(footer, v);
  std::vector<char> bytes;
  for (const u32 v : {kTraceMagic, kTraceVersion1, u32{64}, u32{0}})
    put_le32(bytes, v);
  put_frame(bytes, kDataChunkTag, chunk, static_cast<u32>(events.size()));
  put_frame(bytes, kFooterTag, footer, 0);
  const std::string v1 = temp_path("v1");
  spew(v1, bytes);

  TraceReader reader(v1);
  EXPECT_EQ(reader.version(), kTraceVersion1);
  EXPECT_FALSE(reader.has_l2_stream());
  EXPECT_EQ(read_all(v1), events);

  const std::string v2 = temp_path("v1_as_v2");
  write_trace(v2, events);  // the same events and summary, as v2
  const sim::HierarchyConfig h = sim::make_system_config("gzip", {}).hierarchy;
  ReplayDriver old_file({h, v1});
  ReplayDriver new_file({h, v2});
  EXPECT_EQ(old_file.run(), new_file.run());
  EXPECT_FALSE(old_file.drove_l2_stream());
  EXPECT_EQ(old_file.events_replayed(), events.size());
  std::remove(v1.c_str());
  std::remove(v2.c_str());
}

/// One chunk's place in a v2 file's bytes.
struct ChunkAt {
  u8 tag;
  std::size_t frame;    ///< offset of the tag byte
  std::size_t payload;  ///< offset of the payload
  std::size_t bytes;    ///< payload size
};

/// The chunk framing of a v2 file: a 24-byte header, then per chunk a tag
/// byte and three u32s (two for the footer) before the payload.
std::vector<ChunkAt> chunks_of(const std::vector<char>& b) {
  std::vector<ChunkAt> out;
  std::size_t at = 24;
  while (at + 9 <= b.size()) {
    const u8 tag = static_cast<u8>(b[at]);
    const std::size_t header = tag == kFooterTag ? 9 : 13;
    u32 bytes = 0;
    for (int i = 3; i >= 0; --i)
      bytes = bytes << 8 | static_cast<u8>(b[at + 1 + static_cast<std::size_t>(i)]);
    out.push_back({tag, at, at + header, bytes});
    at += header + bytes;
  }
  return out;
}

/// Capture `benchmark` under `eo` into `path`; returns the hierarchy config
/// of a replay under the capture's config.
sim::HierarchyConfig capture(const std::string& benchmark,
                             sim::ExperimentOptions eo,
                             const std::string& path) {
  eo.capture_path = path;
  (void)sim::run_benchmark(benchmark, eo);
  eo.capture_path.clear();
  return sim::make_system_config(benchmark, eo).hierarchy;
}

sim::ExperimentOptions small_run() {
  sim::ExperimentOptions eo;
  eo.instructions = 20'000;
  eo.warmup_instructions = 5'000;
  return eo;
}

TraceErrorKind replay_error(const sim::HierarchyConfig& h,
                            const std::string& path) {
  try {
    (void)ReplayDriver({h, path}).run();
  } catch (const TraceError& err) {
    return err.kind();
  }
  ADD_FAILURE() << path << ": expected a TraceError";
  return TraceErrorKind::kIo;
}

// The L2 path decodes only L2 chunks, but checks every chunk's CRC.
TEST(TraceDamage, FlippedByteInEitherStreamFailsTheL2Replay) {
  const std::string path = temp_path("l2_damage");
  const sim::HierarchyConfig h = capture("gzip", small_run(), path);
  {
    ReplayDriver driver({h, path});
    (void)driver.run();
    ASSERT_TRUE(driver.drove_l2_stream());
  }
  const auto clean = slurp(path);
  const auto chunks = chunks_of(clean);
  for (const u8 tag : {kL2ChunkTag, kDataChunkTag}) {
    SCOPED_TRACE(tag == kL2ChunkTag ? "L2 chunk" : "L1 chunk");
    const auto it = std::find_if(chunks.begin(), chunks.end(),
                                 [&](const ChunkAt& c) { return c.tag == tag; });
    ASSERT_NE(it, chunks.end());
    auto bytes = clean;
    char& target = bytes[it->payload + it->bytes / 2];
    target = static_cast<char>(target ^ 0x40);
    spew(path, bytes);
    EXPECT_EQ(replay_error(h, path), TraceErrorKind::kCorrupt);
  }
  std::remove(path.c_str());
}

TEST(TraceDamage, FooterL2OpCountMustMatchTheChunks) {
  const std::string path = temp_path("l2_footer");
  const sim::HierarchyConfig h = capture("gzip", small_run(), path);
  auto bytes = slurp(path);
  const ChunkAt footer = chunks_of(bytes).back();
  ASSERT_EQ(footer.tag, kFooterTag);
  const std::vector<u8> old(bytes.begin() + static_cast<long>(footer.payload),
                            bytes.end());
  // end_tick, committed, loads, stores, events, l2_ops, L1-side stats.
  std::vector<u64> fields;
  for (std::size_t p = 0; p < old.size();) fields.push_back(get_varint(old, p));
  ASSERT_GT(fields.size(), 6u);
  ++fields[5];
  std::vector<u8> payload;
  for (const u64 v : fields) put_varint(payload, v);
  bytes.resize(footer.frame);
  put_frame(bytes, kFooterTag, payload, 0);  // a valid CRC over a bad count
  spew(path, bytes);
  EXPECT_EQ(replay_error(h, path), TraceErrorKind::kCorrupt);
  EXPECT_EQ(kind_of(path), TraceErrorKind::kCorrupt);
  std::remove(path.c_str());
}

// The L2-side stream replays bit-for-bit what re-driving the L1 side from
// the L1-level events does, under every scheme, cleaning interval, policy
// and codes setting. The reference is the L1 loop on an L1-only copy of
// the same trace.
TEST(TraceReplay, L2StreamMatchesTheL1EventsUnderEveryL2Config) {
  struct Cleaning {
    Cycle interval;
    protect::CleaningPolicy policy;
  };
  const Cleaning cleanings[] = {
      {0, protect::CleaningPolicy::kWrittenBit},
      {Cycle{64} << 10, protect::CleaningPolicy::kWrittenBit},
      {Cycle{64} << 10, protect::CleaningPolicy::kNaive},
      {Cycle{64} << 10, protect::CleaningPolicy::kDecayCounter},
      {Cycle{64} << 10, protect::CleaningPolicy::kEagerIdle},
      {Cycle{1} << 20, protect::CleaningPolicy::kWrittenBit},
  };
  u64 shared_wb_ecc = 0;
  for (const char* benchmark : {"gzip", "mcf"}) {
    sim::ExperimentOptions eo;
    // Long enough for mcf to fill shared-ECC sets without cleaning.
    eo.instructions = 200'000;
    eo.warmup_instructions = 20'000;
    const std::string v2 = temp_path("exact");
    const std::string l1_only = temp_path("exact_l1_only");
    (void)capture(benchmark, eo, v2);
    {
      TraceReader reader(v2);
      TraceWriter writer(l1_only, reader.line_bytes());
      TraceEvent e;
      while (reader.next(e)) writer.append(e);
      writer.finish(reader.summary());
    }
    for (const auto scheme : {protect::SchemeKind::kUniformEcc,
                              protect::SchemeKind::kNonUniform,
                              protect::SchemeKind::kSharedEccArray}) {
      for (const Cleaning& c : cleanings) {
        for (const bool codes : {true, false}) {
          sim::ExperimentOptions o = eo;
          o.scheme = scheme;
          o.cleaning_interval = c.interval;
          o.cleaning_policy = c.policy;
          o.maintain_codes = codes;
          SCOPED_TRACE(std::string(benchmark) + " " +
                       protect::to_string(scheme) + " @" +
                       std::to_string(c.interval) + " " +
                       protect::to_string(c.policy) +
                       (codes ? " codes" : ""));
          const sim::HierarchyConfig h =
              sim::make_system_config(benchmark, o).hierarchy;
          ReplayDriver l2_path({h, v2});
          ReplayDriver l1_path({h, l1_only});
          const sim::RunResult got = l2_path.run();
          EXPECT_TRUE(got == l1_path.run());
          ASSERT_TRUE(l2_path.drove_l2_stream());
          ASSERT_FALSE(l1_path.drove_l2_stream());
          EXPECT_EQ(l2_path.events_replayed(), l1_path.events_replayed());
          if (scheme == protect::SchemeKind::kSharedEccArray)
            shared_wb_ecc = std::max(shared_wb_ecc, got.wb_ecc);
        }
      }
    }
    std::remove(v2.c_str());
    std::remove(l1_only.c_str());
  }
  // ECC-entry evictions, the shared scheme's own write-backs, are compared.
  EXPECT_GT(shared_wb_ecc, 0u);
}

}  // namespace
}  // namespace aeep::trace
