// Tests for the content-addressed result store (src/store/): digest
// semantics (what makes two cells "the same work"), the lossless RunResult
// codec, the LRU index with its deterministic eviction order,
// crash recovery (a torn tail must cost exactly the torn record, nothing
// before it; a damaged record costs exactly itself), GC compaction, and
// run_grid_cached — a warm re-run must be bit-exact with zero simulation
// work.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "sim/result_json.hpp"
#include "sim/sweep.hpp"
#include "store/build_digest.hpp"
#include "store/digest.hpp"
#include "store/result_store.hpp"
#include "store/sweep_cache.hpp"

namespace aeep::store {
namespace {

namespace fs = std::filesystem;

/// A fresh store directory per test (removed first, so reruns start cold).
std::string temp_dir(const char* name) {
  const std::string dir =
      testing::TempDir() + "aeep_store_test_" + name;
  fs::remove_all(dir);
  return dir;
}

Digest key_of(u64 v) { return Digest{v}; }

/// Start offsets of a store's records, found by walking the segment's
/// framing: an 8-byte header, then tag u8 | length u32 LE | crc u32 |
/// payload per record.
std::vector<u64> record_offsets(const std::string& dir) {
  std::ifstream f(ResultStore::segment_path(dir), std::ios::binary);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(f), {}};
  std::vector<u64> out;
  for (u64 off = 8; off + 9 <= bytes.size();) {
    out.push_back(off);
    u32 len = 0;
    for (unsigned i = 0; i < 4; ++i)
      len |= u32{static_cast<u8>(bytes[off + 1 + i])} << (8 * i);
    off += 9 + len;
  }
  return out;
}

/// Overwrite segment bytes in place, behind an open store's back.
void write_segment_bytes(const std::string& dir, u64 offset,
                         const std::vector<char>& bytes) {
  std::fstream f(ResultStore::segment_path(dir),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<char> read_segment_bytes(const std::string& dir, u64 offset,
                                     u64 n) {
  std::ifstream f(ResultStore::segment_path(dir), std::ios::binary);
  f.seekg(static_cast<std::streamoff>(offset));
  std::vector<char> bytes(n);
  f.read(bytes.data(), static_cast<std::streamsize>(n));
  return bytes;
}

/// Flip one bit of the JSON bytes of the record at `record`: past its 9
/// framing bytes and its 8-byte key.
void damage_record_payload(const std::string& dir, u64 record) {
  const u64 at = record + 9 + 8 + 4;
  std::vector<char> byte = read_segment_bytes(dir, at, 1);
  byte[0] = static_cast<char>(byte[0] ^ 0x40);
  write_segment_bytes(dir, at, byte);
}

JsonValue small_payload(u64 n) {
  JsonValue j = JsonValue::object();
  j.set("n", JsonValue::number(n));
  j.set("tag", JsonValue::string("payload-" + std::to_string(n)));
  return j;
}

/// What `store` serves under key `k`: the payload text, or "<miss>".
std::string served(ResultStore& store, u64 k) {
  const auto hit = store.lookup(key_of(k));
  return hit ? hit->dump(0) : "<miss>";
}

sim::ExperimentOptions small_options(u64 seed = 42) {
  sim::ExperimentOptions eo;
  eo.instructions = 20'000;
  eo.warmup_instructions = 5'000;
  eo.seed = seed;
  return eo;
}

/// gzip × the three protection schemes, small enough to simulate in-test.
std::vector<sim::SweepJob> small_grid() {
  std::vector<sim::SweepJob> grid;
  for (const auto scheme :
       {protect::SchemeKind::kUniformEcc, protect::SchemeKind::kNonUniform,
        protect::SchemeKind::kSharedEccArray}) {
    sim::SweepJob job{"gzip", small_options(), protect::to_string(scheme)};
    job.options.scheme = scheme;
    grid.push_back(std::move(job));
  }
  return grid;
}

/// run_grid_cached's compute step: the cells on a local two-thread pool.
std::vector<sim::SweepOutcome> run_local(
    const std::vector<sim::SweepJob>& grid,
    const sim::SweepRunner::ProgressFn& progress) {
  return sim::SweepRunner(2).run(grid, progress);
}

// --- digest ----------------------------------------------------------------

TEST(Digest, HexRoundTripsAndRejectsMalformed) {
  const Digest d{0x0123456789abcdefULL};
  EXPECT_EQ(d.hex(), "0123456789abcdef");
  const auto back = Digest::from_hex(d.hex());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, d);

  EXPECT_FALSE(Digest::from_hex("").has_value());
  EXPECT_FALSE(Digest::from_hex("123").has_value());
  EXPECT_FALSE(Digest::from_hex("0123456789abcdef0").has_value());
  EXPECT_FALSE(Digest::from_hex("0123456789abcdeg").has_value());
}

TEST(Digest, SemanticFieldsChangeItTagAndLocationDoNot) {
  const sim::SweepJob base{"gzip", small_options(), "baseline"};
  const auto d0 = job_digest(base);
  ASSERT_TRUE(d0.has_value());

  // Same spec, different display tag: same work, same cache line.
  sim::SweepJob retagged = base;
  retagged.tag = "renamed";
  EXPECT_EQ(job_digest(retagged), d0);

  // Any semantic knob misses.
  sim::SweepJob other = base;
  other.options.seed = 43;
  EXPECT_NE(job_digest(other), d0);
  other = base;
  other.options.instructions = 30'000;
  EXPECT_NE(job_digest(other), d0);
  other = base;
  other.options.scheme = protect::SchemeKind::kSharedEccArray;
  EXPECT_NE(job_digest(other), d0);
  other = base;
  other.benchmark = "mcf";
  EXPECT_NE(job_digest(other), d0);
}

TEST(Digest, DifferentBuildMissesSameBuildHits) {
  const sim::SweepJob job{"gzip", small_options(), "baseline"};

  set_build_digest_for_testing(0x1111);
  const auto build_a = job_digest(job);
  const auto build_a_again = job_digest(job);
  set_build_digest_for_testing(0x2222);
  const auto build_b = job_digest(job);
  set_build_digest_for_testing(0);  // restore the real build identity
  const auto real = job_digest(job);

  ASSERT_TRUE(build_a.has_value());
  ASSERT_TRUE(build_b.has_value());
  ASSERT_TRUE(real.has_value());
  // Same job under the same build always keys identically...
  EXPECT_EQ(build_a, build_a_again);
  // ...but a different simulator build must cold-miss, never serve
  // payloads the old code computed.
  EXPECT_NE(build_a, build_b);
  EXPECT_NE(build_a, real);
  EXPECT_NE(build_b, real);
}

TEST(Digest, CaptureJobsAreUncacheable) {
  sim::SweepJob job{"gzip", small_options(), ""};
  job.options.capture_path = "/tmp/out.aeept";
  EXPECT_FALSE(job_digest(job).has_value());
}

// --- RunResult codec -------------------------------------------------------

TEST(ResultCodec, RoundTripsARealRunExactly) {
  const auto grid = small_grid();
  const std::vector<sim::RunResult> r =
      sim::results_or_throw(grid, sim::SweepRunner(1).run(grid));
  for (const sim::RunResult& result : r) {
    const auto back =
        sim::run_result_from_json(sim::run_result_to_json(result));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, result) << result.benchmark;
  }
}

TEST(ResultCodec, RejectsForeignDocuments) {
  EXPECT_FALSE(sim::run_result_from_json(JsonValue::object()).has_value());
  // A future codec version degrades to a miss, never a bad decode.
  JsonValue j = sim::run_result_to_json(sim::RunResult{});
  j.set("codec", JsonValue::number(u64{999}));
  EXPECT_FALSE(sim::run_result_from_json(j).has_value());
}

/// A RunResult with every field set by name to its own non-default value,
/// so a field that RunResult's field list leaves out cannot round-trip.
sim::RunResult every_field_set() {
  sim::RunResult r;
  r.benchmark = "swim";
  r.floating_point = true;
  r.core = {.cycles = 1,
            .committed = 2,
            .loads = 3,
            .stores = 4,
            .branches = 5,
            .commit_stall_wb_full = 6,
            .fetch_stall_cycles = 7,
            .bp = {.lookups = 8, .dir_mispredicts = 9,
                   .target_mispredicts = 10}};
  r.avg_dirty_fraction = 1.0 / 3.0;
  r.avg_dirty_lines = 11;
  r.peak_dirty_lines = 12;
  r.wb_replacement = 13;
  r.wb_cleaning = 14;
  r.wb_ecc = 15;
  r.l1i = {.reads = 16, .read_hits = 17, .writes = 18, .write_hits = 19,
           .fills = 20, .evictions = 21, .dirty_evictions = 22};
  r.l1d = {.reads = 23, .read_hits = 24, .writes = 25, .write_hits = 26,
           .fills = 27, .evictions = 28, .dirty_evictions = 29};
  r.l2 = {.reads = 30, .read_hits = 31, .writes = 32, .write_hits = 33,
          .fills = 34, .evictions = 35, .dirty_evictions = 36};
  r.wbuf = {.stores = 37, .coalesced = 38, .drains = 39, .full_events = 40,
            .free_list_peak = 41};
  r.bus = {.reads = 42, .writes = 43, .bytes_read = 44, .bytes_written = 45,
           .busy_cycles = 46, .queue_delay_cycles = 47};
  r.itlb = {.accesses = 48, .misses = 49};
  r.dtlb = {.accesses = 50, .misses = 51};
  r.recovery = {.checks = 52, .errors = 53, .corrected = 54, .refetched = 55,
                .retries = 56, .retry_exhausted = 57, .due_events = 58,
                .lines_dropped = 59, .dirty_lines_lost = 60,
                .lines_poisoned = 61, .poison_reads = 62,
                .poisoned_writebacks = 63, .panics = 64, .ways_retired = 65,
                .stall_cycles = 66};
  r.strikes = {.strikes = 67, .bits_flipped = 68, .data_hits = 69,
               .parity_hits = 70, .ecc_hits = 71, .absorbed = 72,
               .stuck_reasserts = 73};
  r.retired_ways = 74;
  r.retired_capacity_fraction = 0.125;
  r.panicked = true;
  return r;
}

TEST(ResultCodec, RoundTripsEveryFieldSetByName) {
  const sim::RunResult r = every_field_set();
  const auto back = sim::run_result_from_json(*json_parse(
      sim::run_result_to_json(r).dump(0)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, r);
}

/// Call check(edited, what) on every document one edit away from the
/// object `doc`: any member at any depth dropped, renamed, or replaced by a
/// value of another kind.
void for_each_edit(
    const JsonValue& doc, const std::string& at,
    const std::function<void(const JsonValue&, const std::string&)>& check) {
  const auto same_kind = [](const JsonValue& a, const JsonValue& b) {
    return a.is_bool() == b.is_bool() && a.is_number() == b.is_number() &&
           a.is_string() == b.is_string() && a.is_array() == b.is_array() &&
           a.is_object() == b.is_object();
  };
  const auto& members = doc.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto& [key, value] = members[i];
    const auto with = [&, i](const std::string& k, const JsonValue* v) {
      auto edited = members;
      if (v == nullptr)
        edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(i));
      else
        edited[i] = {k, *v};
      return JsonValue::object(std::move(edited));
    };
    check(with(key, nullptr), "dropped " + at + key);
    check(with(key + "_", &value), "renamed " + at + key);
    for (const JsonValue& other :
         {JsonValue::boolean(false), JsonValue::number(u64{1}),
          JsonValue::string("1"), JsonValue::array(), JsonValue::object()})
      if (!same_kind(value, other))
        check(with(key, &other), "retyped " + at + key);
    if (value.is_object())
      for_each_edit(value, at + key + ".",
                    [&](const JsonValue& v, const std::string& what) {
                      check(with(key, &v), what);
                    });
  }
}

TEST(ResultCodec, RefusesADocumentWithAnyKeyDroppedRenamedOrRetyped) {
  const JsonValue doc = sim::run_result_to_json(every_field_set());
  ASSERT_TRUE(sim::run_result_from_json(doc).has_value());
  std::size_t edits = 0;
  for_each_edit(doc, "", [&](const JsonValue& edited, const std::string& what) {
    ++edits;
    EXPECT_FALSE(sim::run_result_from_json(edited).has_value()) << what;
  });
  // 79 leaves, 11 nested objects and the codec key, each dropped, renamed
  // and given four other kinds.
  EXPECT_EQ(edits, 91u * 6u);

  // An extra key, and counts that no u64 holds, are refused too.
  JsonValue extra = doc;
  extra.set("explain", JsonValue::object());
  EXPECT_FALSE(sim::run_result_from_json(extra).has_value());
  for (const JsonValue& bad : {JsonValue::number(-1.0), JsonValue::number(0.5)}) {
    JsonValue j = doc;
    j.set("wb_ecc", bad);
    EXPECT_FALSE(sim::run_result_from_json(j).has_value()) << bad.dump(0);
  }
}

// --- ResultStore: persistence and recovery ---------------------------------

TEST(ResultStore, InsertLookupAndReopenRecoverEverything) {
  const std::string dir = temp_dir("reopen");
  {
    ResultStore store({dir, 64});
    for (u64 i = 1; i <= 3; ++i) store.insert(key_of(i), small_payload(i));
    EXPECT_EQ(store.size(), 3u);
    const auto hit = store.lookup(key_of(2));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->dump(0), small_payload(2).dump(0));
    EXPECT_FALSE(store.lookup(key_of(99)).has_value());
    EXPECT_EQ(store.stats().inserts, 3u);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
  }
  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.stats().recovered_records, 3u);
  EXPECT_EQ(reopened.stats().dropped_records, 0u);
  for (u64 i = 1; i <= 3; ++i) {
    const auto hit = reopened.lookup(key_of(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->dump(0), small_payload(i).dump(0));
  }
}

TEST(ResultStore, LaterRecordWinsAfterUpdateAndReopen) {
  const std::string dir = temp_dir("update");
  {
    ResultStore store({dir, 64});
    store.insert(key_of(7), small_payload(1));
    store.insert(key_of(7), small_payload(2));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats().inserts, 1u);
    EXPECT_EQ(store.stats().updates, 1u);
    EXPECT_EQ(store.lookup(key_of(7))->dump(0), small_payload(2).dump(0));
  }
  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.lookup(key_of(7))->dump(0), small_payload(2).dump(0));
}

TEST(ResultStore, TornTailCostsExactlyTheTornRecord) {
  const std::string dir = temp_dir("torn");
  u64 full_bytes = 0;
  u64 two_record_bytes = 0;
  {
    ResultStore store({dir, 64});
    store.insert(key_of(1), small_payload(1));
    store.insert(key_of(2), small_payload(2));
    two_record_bytes = store.disk_bytes();
    store.insert(key_of(3), small_payload(3));
    full_bytes = store.disk_bytes();
  }
  // Simulate a crash mid-append of record 3: cut its payload short.
  fs::resize_file(ResultStore::segment_path(dir), full_bytes - 5);

  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.stats().recovered_records, 2u);
  EXPECT_EQ(reopened.stats().dropped_records, 1u);
  // The torn tail is physically truncated to the last whole record...
  EXPECT_EQ(reopened.disk_bytes(), two_record_bytes);
  EXPECT_EQ(fs::file_size(ResultStore::segment_path(dir)), two_record_bytes);
  // ...everything before it survives, and the store accepts new appends.
  EXPECT_TRUE(reopened.lookup(key_of(1)).has_value());
  EXPECT_TRUE(reopened.lookup(key_of(2)).has_value());
  EXPECT_FALSE(reopened.lookup(key_of(3)).has_value());
  reopened.insert(key_of(4), small_payload(4));
  EXPECT_TRUE(reopened.lookup(key_of(4)).has_value());
}

TEST(ResultStore, FailedInsertLeavesNoTornRecord) {
  const std::string dir = temp_dir("failed_insert");
  const std::string seg = ResultStore::segment_path(dir);
  {
    ResultStore store({dir, 64});
    store.insert(key_of(1), small_payload(1));

    // Let the file grow by 4 bytes only: key 2's record is cut short
    // mid-header and its flush fails (EFBIG instead of SIGXFSZ).
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit saved{};
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
    rlimit capped = saved;
    capped.rlim_cur = static_cast<rlim_t>(fs::file_size(seg) + 4);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
    EXPECT_THROW(store.insert(key_of(2), small_payload(2)),
                 trace::TraceError);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, old_handler);

    store.insert(key_of(3), small_payload(3));
    EXPECT_TRUE(store.lookup(key_of(1)).has_value());
    EXPECT_FALSE(store.lookup(key_of(2)).has_value());
    EXPECT_TRUE(store.lookup(key_of(3)).has_value());
    EXPECT_EQ(store.stats().corrupt_payloads, 0u);
    EXPECT_EQ(store.disk_bytes(), fs::file_size(seg));
  }
  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.stats().recovered_records, 2u);
  EXPECT_EQ(reopened.stats().dropped_records, 0u);
  EXPECT_TRUE(reopened.lookup(key_of(3)).has_value());
}

TEST(ResultStore, CorruptPayloadIsDroppedNeverReturned) {
  const std::string dir = temp_dir("corrupt");
  ResultStore store({dir, 64});
  store.insert(key_of(1), small_payload(1));

  // Flip one payload byte behind the store's back (header is 8 bytes,
  // record framing 9 more; +4 lands inside the key/JSON bytes).
  std::fstream f(ResultStore::segment_path(dir),
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(8 + 9 + 4);
  char c = 0;
  f.get(c);
  f.seekp(8 + 9 + 4);
  f.put(static_cast<char>(c ^ 0x40));
  f.close();

  EXPECT_FALSE(store.lookup(key_of(1)).has_value());
  EXPECT_EQ(store.stats().corrupt_payloads, 1u);
  EXPECT_EQ(store.size(), 0u);
}

// A record is served only under its own key: an entry whose bytes now hold
// another key's intact record misses, and is dropped as corrupt.
TEST(ResultStore, LookupRejectsAnotherKeysRecord) {
  const std::string dir = temp_dir("foreign_key");
  ResultStore store({dir, 64});
  store.insert(key_of(1), small_payload(1));
  store.insert(key_of(2), small_payload(2));  // same length as key 1's
  const std::vector<u64> records = record_offsets(dir);
  ASSERT_EQ(records.size(), 2u);
  write_segment_bytes(
      dir, records[1],
      read_segment_bytes(dir, records[0], records[1] - records[0]));

  EXPECT_EQ(served(store, 2), "<miss>");
  EXPECT_EQ(store.stats().corrupt_payloads, 1u);
  EXPECT_EQ(served(store, 1), small_payload(1).dump(0));
}

// Damage inside one whole record costs that record only: the reopen scan
// skips it and keeps every record behind it (a torn tail, by contrast, is
// truncated). The damaged bytes stay dead until gc() compacts them away.
TEST(ResultStore, ReopenSkipsADamagedRecordAndKeepsTheRest) {
  const std::string dir = temp_dir("damaged_middle");
  constexpr u64 kRecords = 10;
  u64 full_bytes = 0;
  {
    ResultStore store({dir, 64});
    for (u64 i = 1; i <= kRecords; ++i)
      store.insert(key_of(i), small_payload(i));
    full_bytes = store.disk_bytes();
  }
  const std::vector<u64> records = record_offsets(dir);
  ASSERT_EQ(records.size(), kRecords);
  damage_record_payload(dir, records[4]);  // key 5

  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.size(), kRecords - 1);
  EXPECT_EQ(reopened.stats().recovered_records, kRecords - 1);
  EXPECT_EQ(reopened.stats().dropped_records, 1u);
  EXPECT_EQ(reopened.disk_bytes(), full_bytes);
  EXPECT_EQ(fs::file_size(ResultStore::segment_path(dir)), full_bytes);
  for (u64 i = 1; i <= kRecords; ++i)
    EXPECT_EQ(served(reopened, i),
              i == 5 ? "<miss>" : small_payload(i).dump(0));

  // Appends land behind the dead record, and gc() drops its bytes: ten
  // live records of the same sizes again.
  reopened.insert(key_of(5), small_payload(5));
  EXPECT_EQ(reopened.gc(u64{1} << 30), 0u);
  EXPECT_EQ(reopened.disk_bytes(), full_bytes);
  ResultStore compacted({dir, 64});
  EXPECT_EQ(compacted.size(), kRecords);
  EXPECT_EQ(compacted.stats().dropped_records, 0u);
  EXPECT_EQ(served(compacted, 5), small_payload(5).dump(0));
}

// A record's CRC covers its payload, not its length field. A flipped length
// bit, whether it shrinks the record or lengthens it, still costs that
// record only: the scan resumes at the next whole record, and the segment
// keeps every byte until gc().
TEST(ResultStore, ReopenSkipsARecordWithADamagedLengthAndKeepsTheRest) {
  for (const bool lengthen : {false, true}) {
    SCOPED_TRACE(lengthen ? "lengthened" : "shrunk");
    const std::string dir =
        temp_dir(lengthen ? "length_lengthened" : "length_shrunk");
    constexpr u64 kRecords = 10;
    u64 full_bytes = 0;
    {
      ResultStore store({dir, 64});
      for (u64 i = 1; i <= kRecords; ++i)
        store.insert(key_of(i), small_payload(i));
      full_bytes = store.disk_bytes();
    }
    const std::vector<u64> records = record_offsets(dir);
    ASSERT_EQ(records.size(), kRecords);
    // Record 2's length field, low byte first: clear its lowest set bit, or
    // set its lowest clear bit.
    std::vector<char> low = read_segment_bytes(dir, records[1] + 1, 1);
    const unsigned byte = static_cast<u8>(low[0]);
    const unsigned bit = lengthen ? ~byte & (byte + 1) : byte & (0u - byte);
    ASSERT_NE(bit & 0xFF, 0u);
    low[0] = static_cast<char>(byte ^ bit);
    write_segment_bytes(dir, records[1] + 1, low);

    ResultStore reopened({dir, 64});
    EXPECT_EQ(reopened.size(), kRecords - 1);
    EXPECT_EQ(reopened.stats().recovered_records, kRecords - 1);
    EXPECT_EQ(reopened.stats().dropped_records, 1u);
    EXPECT_EQ(reopened.disk_bytes(), full_bytes);
    EXPECT_EQ(fs::file_size(ResultStore::segment_path(dir)), full_bytes);
    for (u64 i = 1; i <= kRecords; ++i)
      EXPECT_EQ(served(reopened, i),
                i == 2 ? "<miss>" : small_payload(i).dump(0));

    // gc() drops record 2's bytes and nothing else.
    EXPECT_EQ(reopened.gc(u64{1} << 30), 0u);
    EXPECT_EQ(reopened.disk_bytes(), full_bytes - (records[2] - records[1]));
    ResultStore compacted({dir, 64});
    EXPECT_EQ(compacted.size(), kRecords - 1);
    EXPECT_EQ(compacted.stats().dropped_records, 0u);
  }
}

// --- ResultStore: LRU index -------------------------------------------------

TEST(ResultStore, EvictionOrderIsDeterministic) {
  const std::string dir = temp_dir("evict");
  ResultStore store({dir, 4});
  for (u64 i = 1; i <= 4; ++i) store.insert(key_of(i), small_payload(i));

  // A lookup hit makes key 2 most recently used.
  ASSERT_TRUE(store.lookup(key_of(2)).has_value());

  // LRU..MRU (1, 3, 4, 2): the first entries() line is always the next
  // eviction victim.
  auto order = store.entries();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0].key, key_of(1));
  EXPECT_EQ(order[1].key, key_of(3));
  EXPECT_EQ(order[2].key, key_of(4));
  EXPECT_EQ(order[3].key, key_of(2));

  // A fifth insert at capacity evicts the LRU — key 1, not the recently
  // used key 2.
  store.insert(key_of(5), small_payload(5));
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_FALSE(store.lookup(key_of(1)).has_value());
  EXPECT_TRUE(store.lookup(key_of(2)).has_value());

  order = store.entries();
  EXPECT_EQ(order[0].key, key_of(3));  // new LRU
}

// Served-cache's shape: every key is looked up once, right after the next
// key's insert, into an index far smaller than the keys inserted. LRU
// serves every repeat and evicts exactly the overflow.
TEST(ResultStore, ChurnPastCapacityHitsEveryRecentRepeat) {
  const std::string dir = temp_dir("churn");
  ResultStore store({dir, 64});
  store.insert(key_of(0), small_payload(0));
  for (u64 i = 1; i < 200; ++i) {
    store.insert(key_of(i), small_payload(i));
    EXPECT_TRUE(store.lookup(key_of(i - 1)).has_value()) << i - 1;
  }
  const StoreStats s = store.stats();
  EXPECT_EQ(s.hits, 199u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.inserts, 200u);
  EXPECT_EQ(s.evictions, 136u);
  EXPECT_EQ(store.size(), 64u);
}

// Recency lives in memory only: a reopened store lists its entries in
// record order, whatever the lookups before it reordered.
TEST(ResultStore, ReopenListsEntriesInRecordOrder) {
  const std::string dir = temp_dir("reopen_order");
  {
    ResultStore store({dir, 64});
    for (u64 i = 1; i <= 4; ++i) store.insert(key_of(i), small_payload(i));
    ASSERT_TRUE(store.lookup(key_of(2)).has_value());
    ASSERT_TRUE(store.lookup(key_of(1)).has_value());
    const auto order = store.entries();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0].key, key_of(3));
    EXPECT_EQ(order[3].key, key_of(1));
  }
  ResultStore reopened({dir, 64});
  const auto order = reopened.entries();
  ASSERT_EQ(order.size(), 4u);
  for (u64 i = 0; i < 4; ++i) EXPECT_EQ(order[i].key, key_of(i + 1)) << i;
}

TEST(ResultStore, GcEvictsProbationaryFirstAndCompactsDeadBytes) {
  const std::string dir = temp_dir("gc");
  ResultStore store({dir, 64});
  for (u64 i = 1; i <= 6; ++i) store.insert(key_of(i), small_payload(i));
  // Rewrite key 1 so the segment carries a dead record.
  store.insert(key_of(1), small_payload(11));
  // Make keys 5 and 6 most recently used.
  ASSERT_TRUE(store.lookup(key_of(5)).has_value());
  ASSERT_TRUE(store.lookup(key_of(6)).has_value());
  const u64 before = store.disk_bytes();

  // A huge budget evicts nothing but still compacts the dead record.
  EXPECT_EQ(store.gc(u64{1} << 30), 0u);
  EXPECT_EQ(store.size(), 6u);
  EXPECT_LT(store.disk_bytes(), before);
  EXPECT_EQ(store.lookup(key_of(1))->dump(0), small_payload(11).dump(0));

  // A tight budget evicts LRU-first: 2, 3, 4 go before the recently used
  // 5 and 6. (Key 1's lookup above made it the most recently used.)
  const u64 keep_three =
      8 + 3 * (store.disk_bytes() - 8) / 6 + 8;  // header + ~3 records
  const u64 evicted = store.gc(keep_three);
  EXPECT_EQ(evicted, 3u);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_LE(store.disk_bytes(), keep_three);
  EXPECT_FALSE(store.lookup(key_of(2)).has_value());
  EXPECT_FALSE(store.lookup(key_of(3)).has_value());
  EXPECT_FALSE(store.lookup(key_of(4)).has_value());
  EXPECT_TRUE(store.lookup(key_of(5)).has_value());
  EXPECT_TRUE(store.lookup(key_of(6)).has_value());

  // The compacted segment reopens clean.
  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.size(), 3u);
  EXPECT_EQ(reopened.stats().dropped_records, 0u);
}

// A GC that meets a live record damaged after it was indexed drops that
// entry, counted like a lookup's, and compacts the rest: every other key
// still reads its own payload, and no temp file is left behind.
TEST(ResultStore, GcDropsADamagedRecordAndKeepsEveryOtherKey) {
  const std::string dir = temp_dir("gc_damaged");
  ResultStore store({dir, 64});
  for (u64 i = 1; i <= 3; ++i) store.insert(key_of(i), small_payload(i));
  store.insert(key_of(1), small_payload(11));  // the last record
  const std::vector<u64> records = record_offsets(dir);
  ASSERT_EQ(records.size(), 4u);
  damage_record_payload(dir, records.back());

  EXPECT_EQ(store.gc(u64{1} << 30), 0u);
  EXPECT_EQ(store.stats().corrupt_payloads, 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(fs::exists(ResultStore::segment_path(dir) + ".tmp"));
  EXPECT_EQ(store.disk_bytes(),
            fs::file_size(ResultStore::segment_path(dir)));
  EXPECT_EQ(served(store, 1), "<miss>");
  EXPECT_EQ(served(store, 2), small_payload(2).dump(0));
  EXPECT_EQ(served(store, 3), small_payload(3).dump(0));

  ResultStore reopened({dir, 64});
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_EQ(reopened.stats().dropped_records, 0u);
}

// A GC whose compacted segment cannot be written throws, removes its temp
// file, and leaves the segment and every entry where they were.
TEST(ResultStore, FailedGcLeavesTheStoreAsItWas) {
  const std::string dir = temp_dir("gc_failed");
  const std::string seg = ResultStore::segment_path(dir);
  ResultStore store({dir, 64});
  for (u64 i = 1; i <= 3; ++i) store.insert(key_of(i), small_payload(i));
  store.insert(key_of(1), small_payload(11));  // a dead record to compact
  const u64 before = store.disk_bytes();

  // No file may grow past 16 bytes: the temp segment's close fails.
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit capped = saved;
  capped.rlim_cur = 16;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &capped), 0);
  EXPECT_THROW(store.gc(u64{1} << 30), trace::TraceError);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_FALSE(fs::exists(seg + ".tmp"));
  EXPECT_EQ(store.disk_bytes(), before);
  EXPECT_EQ(fs::file_size(seg), before);
  EXPECT_EQ(served(store, 1), small_payload(11).dump(0));
  EXPECT_EQ(served(store, 2), small_payload(2).dump(0));
  EXPECT_EQ(served(store, 3), small_payload(3).dump(0));
  EXPECT_EQ(store.stats().corrupt_payloads, 0u);

  // The store still appends and compacts.
  store.insert(key_of(4), small_payload(4));
  EXPECT_EQ(store.gc(u64{1} << 30), 0u);
  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(served(store, 4), small_payload(4).dump(0));
}

// --- SweepCache / run_grid_cached ------------------------------------------

TEST(SweepCache, WarmRunGridCachedIsBitExactWithZeroSimulation) {
  const std::string dir = temp_dir("warm");
  const auto grid = small_grid();

  SweepCache cold({dir, 64});
  std::vector<std::size_t> completed_seq;
  const auto cold_results = sim::results_or_throw(
      grid, run_grid_cached(run_local, grid, &cold,
                            [&](const sim::SweepProgress& p) {
                              completed_seq.push_back(p.completed);
                            }));
  ASSERT_EQ(cold_results.size(), grid.size());
  EXPECT_EQ(cold.stats().hits, 0u);
  EXPECT_EQ(cold.stats().misses, grid.size());
  EXPECT_EQ(cold.stats().inserts, grid.size());
  EXPECT_EQ(completed_seq.size(), grid.size());

  // The same grid against a reopened store: every cell served from disk,
  // the runner's pool never touched, results field-for-field identical.
  SweepCache warm({dir, 64});
  completed_seq.clear();
  std::vector<double> warm_walls;
  std::vector<char> saw_job(grid.size(), 0);
  const auto warm_results = sim::results_or_throw(
      grid,
      run_grid_cached(run_local, grid, &warm,
                      [&](const sim::SweepProgress& p) {
                        completed_seq.push_back(p.completed);
                        saw_job[p.job_index] = 1;
                        EXPECT_EQ(p.total, grid.size());
                        ASSERT_NE(p.outcome, nullptr);
                        EXPECT_TRUE(p.outcome->ok());
                      }),
      &warm_walls);
  EXPECT_EQ(warm.stats().hits, grid.size());
  EXPECT_EQ(warm.stats().misses, 0u);
  EXPECT_EQ(warm.stats().inserts, 0u);
  EXPECT_EQ(warm_results, cold_results);

  // Progress stays 1..N and covers every cell; cached cells report zero
  // wall time (nothing ran).
  ASSERT_EQ(completed_seq.size(), grid.size());
  for (std::size_t i = 0; i < completed_seq.size(); ++i)
    EXPECT_EQ(completed_seq[i], i + 1);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE(saw_job[i]) << i;
    EXPECT_EQ(warm_walls[i], 0.0) << i;
  }
}

TEST(SweepCache, PartialHitsRunOnlyTheMisses) {
  const std::string dir = temp_dir("partial");
  const auto grid = small_grid();
  const sim::SweepRunner runner(2);

  SweepCache cache({dir, 64});
  // Pre-seed the middle cell only.
  const std::vector<sim::SweepJob> middle = {grid[1]};
  const auto seeded = sim::results_or_throw(middle, runner.run(middle));
  cache.insert(grid[1], seeded[0]);
  cache.reset_stats();

  const auto results =
      sim::results_or_throw(grid, run_grid_cached(run_local, grid, &cache));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, grid.size() - 1);
  EXPECT_EQ(cache.stats().inserts, grid.size() - 1);
  EXPECT_EQ(results[1], seeded[0]);
  // Outcomes land at their grid positions regardless of hit/miss split.
  const auto all = sim::results_or_throw(grid, runner.run(grid));
  EXPECT_EQ(results, all);
}

TEST(SweepCache, AFailedCellIsCapturedAndTheRestAreStored) {
  const std::string dir = temp_dir("failed_cell");
  auto grid = small_grid();
  grid.insert(grid.begin() + 1, {"no-such-benchmark", small_options(), "bad"});

  SweepCache cache({dir, 64});
  const auto outcomes = run_grid_cached(run_local, grid, &cache);
  ASSERT_EQ(outcomes.size(), grid.size());
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(cache.stats().inserts, grid.size() - 1);
  EXPECT_THROW(sim::results_or_throw(grid, outcomes), std::runtime_error);

  // The cells that did finish are served on the next run; the failed one
  // runs (and fails) again.
  cache.reset_stats();
  const auto again = run_grid_cached(run_local, grid, &cache);
  EXPECT_EQ(cache.stats().hits, grid.size() - 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_FALSE(again[1].ok());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i == 1) continue;
    ASSERT_TRUE(again[i].ok()) << again[i].error;
    EXPECT_EQ(again[i].result, outcomes[i].result) << i;
  }
}

}  // namespace
}  // namespace aeep::store
