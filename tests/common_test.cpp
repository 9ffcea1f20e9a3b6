// Tests for the common substrate: bit utilities, RNG and Zipf sampling,
// statistics primitives (including the cycle-exact time-weighted level used
// for the dirty-lines-per-cycle metric), CLI parsing and table rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

#include "common/bitops.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "fault/injector.hpp"
#include "protect/protected_l2.hpp"
#include "protect/recovery.hpp"
#include "sim/experiment.hpp"

namespace aeep {
namespace {

TEST(Bitops, PowersOfTwo) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(4096), 12u);
}

TEST(Bitops, BitManipulation) {
  EXPECT_EQ(popcount64(0xFFull), 8u);
  EXPECT_EQ(parity64(0b101), 0u);
  EXPECT_EQ(parity64(0b111), 1u);
  EXPECT_EQ(bit_of(0b100, 2), 1u);
  EXPECT_EQ(bit_of(0b100, 1), 0u);
  EXPECT_EQ(with_bit(0, 5, 1), 32u);
  EXPECT_EQ(with_bit(32, 5, 0), 0u);
  EXPECT_EQ(flip_bit(0, 63), 1ull << 63);
  EXPECT_EQ(bits_of(0xABCD, 4, 8), 0xBCull);
  EXPECT_EQ(bits_of(~u64{0}, 0, 64), ~u64{0});
  EXPECT_EQ(round_up_pow2(100, 64), 128u);
  EXPECT_EQ(round_up_pow2(128, 64), 128u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Xorshift64Star a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xorshift64Star a(1), b(2);
  unsigned same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0u);
}

TEST(Rng, ZeroSeedIsRemapped) {
  Xorshift64Star z(0);
  EXPECT_NE(z.next(), 0u);  // xorshift with zero state would stick at zero
}

TEST(Rng, BoundsRespected) {
  Xorshift64Star r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Xorshift64Star r(8);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (r.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricMeanMatches) {
  Xorshift64Star r(9);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.next_geometric(0.25));
  EXPECT_NEAR(sum / n, 4.0, 0.1);  // mean of geometric = 1/p
}

TEST(Zipf, SamplesInRangeAndSkewed) {
  ZipfSampler z(1000, 1.0, 42);
  std::map<u64, u64> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const u64 s = z.sample();
    ASSERT_LT(s, 1000u);
    ++counts[s];
  }
  // Rank 0 should be roughly twice as popular as rank 1 for s=1.
  EXPECT_GT(counts[0], counts[1]);
  const double ratio =
      static_cast<double>(counts[0]) / static_cast<double>(counts[1]);
  EXPECT_NEAR(ratio, 2.0, 0.5);
  // And vastly more popular than deep tail ranks.
  EXPECT_GT(counts[0], counts[900] * 20);
}

TEST(Zipf, UniformWhenExponentZero) {
  ZipfSampler z(100, 0.0, 43);
  std::vector<u64> counts(100, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[z.sample()];
  for (int k : {0, 13, 57, 99})
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, 0.01, 0.004);
}

TEST(Stats, TimeWeightedLevelIsExact) {
  TimeWeightedLevel l;
  l.reset(0, 0.0);
  l.update(10, 4.0);   // level 0 over [0,10)
  l.update(20, 8.0);   // level 4 over [10,20)
  l.update(40, 8.0);   // level 8 over [20,40)
  // average = (0*10 + 4*10 + 8*20) / 40 = 200/40 = 5
  EXPECT_DOUBLE_EQ(l.average(), 5.0);
  EXPECT_DOUBLE_EQ(l.current(), 8.0);
  EXPECT_EQ(l.elapsed(), 40u);
}

TEST(Stats, TimeWeightedLevelSameCycleUpdates) {
  TimeWeightedLevel l;
  l.reset(5, 1.0);
  l.update(5, 3.0);  // instantaneous change, no weight at level 1
  l.update(15, 3.0);
  EXPECT_DOUBLE_EQ(l.average(), 3.0);
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--alpha=5", "--beta", "pos1", "--gamma=x"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_u64("alpha", 0), 5u);
  EXPECT_TRUE(args.get_bool("beta", false));
  EXPECT_EQ(args.get("gamma", ""), "x");
  EXPECT_EQ(args.get("missing", "d"), "d");
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "pos1");
}

TEST(Cli, NumericSuffixes) {
  const char* argv[] = {"prog",       "--a=64K",         "--b=1M",
                        "--c=2G",     "--d=123",         "--e=0.25",
                        "--f=1e-19",  "--g=17179869183G"};
  CliArgs args(8, argv);
  EXPECT_EQ(args.get_u64("a", 0), u64{64} << 10);
  EXPECT_EQ(args.get_u64("b", 0), u64{1} << 20);
  EXPECT_EQ(args.get_u64("c", 0), u64{2} << 30);
  EXPECT_EQ(args.get_u64("d", 0), 123u);
  EXPECT_EQ(args.get_double("e", 0.0), 0.25);
  EXPECT_EQ(args.get_double("f", 0.0), 1e-19);
  EXPECT_EQ(args.get_u64("g", 0), u64{17179869183} << 30);  // 2^64 - 2^30
}

TEST(Cli, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  CliArgs args(3, argv);
  (void)args.get_u64("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, RejectsDuplicateFlags) {
  // A repeated flag is a copy-paste error; silently taking the last value
  // once launched a sweep under the wrong seed.
  const char* argv[] = {"prog", "--seed=1", "--jobs=4", "--seed=7"};
  EXPECT_THROW(CliArgs(4, argv), std::invalid_argument);
  try {
    CliArgs args(4, argv);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos)
        << "error must name the duplicated flag: " << e.what();
  }
}

TEST(Cli, RejectsDuplicateBareFlags) {
  // `--verbose --verbose` and `--jobs --jobs=2` are both duplicates: the
  // key, not the spelled form, is what may appear once.
  const char* argv1[] = {"prog", "--verbose", "--verbose"};
  EXPECT_THROW(CliArgs(3, argv1), std::invalid_argument);
  const char* argv2[] = {"prog", "--jobs", "--jobs=2"};
  EXPECT_THROW(CliArgs(3, argv2), std::invalid_argument);
}

TEST(Cli, DistinctFlagsStillParse) {
  const char* argv[] = {"prog", "--seed=1", "--seeds=2"};  // prefix != dup
  CliArgs args(3, argv);
  EXPECT_EQ(args.get_u64("seed", 0), 1u);
  EXPECT_EQ(args.get_u64("seeds", 0), 2u);
}

TEST(Cli, MissingValueFallsBackToDefault) {
  // `--key=` supplies an empty value: string getters return it verbatim,
  // numeric getters must exit 2 (an empty numeral is a typo, not a zero).
  const char* argv[] = {"prog", "--name=", "--count=", "--rate="};
  CliArgs args(4, argv);
  EXPECT_EQ(args.get("name", "default"), "");
  EXPECT_TRUE(args.has("count"));
  EXPECT_EXIT(args.get_u64("count", 9), testing::ExitedWithCode(2),
              "bad number in --count=");
  EXPECT_EXIT(args.get_double("rate", 0.5), testing::ExitedWithCode(2),
              "bad number in --rate=");
}

TEST(Cli, BadNumericSuffixThrows) {
  const char* argv[] = {"prog", "--interval=64Q", "--warmup=64KB",
                        "--corrupt=0.5xyz", "--instructions=abc"};
  CliArgs args(5, argv);
  EXPECT_EXIT(args.get_u64("interval", 0), testing::ExitedWithCode(2),
              "bad numeric suffix in --interval=64Q");
  EXPECT_EXIT(args.get_u64("warmup", 0), testing::ExitedWithCode(2),
              "bad numeric suffix in --warmup=64KB");
  EXPECT_EXIT(args.get_double("corrupt", 0.0), testing::ExitedWithCode(2),
              "bad number in --corrupt=0.5xyz");
  EXPECT_EXIT(args.get_u64("instructions", 0), testing::ExitedWithCode(2),
              "bad number in --instructions=abc");
  EXPECT_EXIT(args.get_double("instructions", 0.0),
              testing::ExitedWithCode(2), "bad number in --instructions=abc");
}

TEST(Cli, UnknownFlagSurfacesInUnusedAndQueriedListsAccepted) {
  // The reject_unknown_flags() path: a typo'd flag stays in unused() and
  // the error message can print queried() as the accepted set.
  const char* argv[] = {"prog", "--instrs=5", "--seed=3"};
  CliArgs args(3, argv);
  (void)args.get_u64("instructions", 0);  // the real flag
  (void)args.get_u64("seed", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "instrs");
  const auto accepted = args.queried();
  EXPECT_NE(std::find(accepted.begin(), accepted.end(), "instructions"),
            accepted.end());
}

TEST(Cli, OverflowingNumberIsInvalidArgumentNamingTheFlag) {
  // Out of range, wrapped by a suffix, or negative: stoull would quietly
  // read "-1" as 2^64 - 1 (a listen port of 65535 once).
  const char* argv[] = {"prog", "--seed=99999999999999999999999",
                        "--interval=17179869184G", "--listen-port=-1",
                        "--rate=1e999"};
  CliArgs args(5, argv);
  EXPECT_EXIT(args.get_u64("seed", 0), testing::ExitedWithCode(2),
              "bad number in --seed=99999999999999999999999");
  EXPECT_EXIT(args.get_u64("interval", 0), testing::ExitedWithCode(2),
              "bad number in --interval=17179869184G");
  EXPECT_EXIT(args.get_u64("listen-port", 0), testing::ExitedWithCode(2),
              "bad number in --listen-port=-1");
  EXPECT_EXIT(args.get_double("rate", 0.0), testing::ExitedWithCode(2),
              "bad number in --rate=1e999");
}

TEST(Cli, GetListSplitsOnCommasAndDropsEmptyItems) {
  const char* argv[] = {"prog", "--workers=a:1,,b:2,"};
  CliArgs args(2, argv);
  EXPECT_EQ(args.get_list("workers", ""),
            (std::vector<std::string>{"a:1", "b:2"}));
  EXPECT_EQ(args.get_list("benchmarks", "gzip,mcf"),
            (std::vector<std::string>{"gzip", "mcf"}));
  EXPECT_TRUE(args.get_list("none", "").empty());
}

TEST(Cli, GetChoiceMapsSpellingsAndExitsTwoOnAnUnknownOne) {
  const char* argv[] = {"prog", "--due-policy=poison", "--scheme=uniform-ecc"};
  CliArgs args(3, argv);
  EXPECT_EQ(get_choice<int>(args, "due-policy", "drop",
                            {{"drop", 1}, {"poison", 2}}),
            2);
  EXPECT_EQ(get_choice<int>(args, "absent", "drop", {{"drop", 1}}), 1);
  EXPECT_EXIT(get_choice<int>(args, "scheme", "shared",
                              {{"uniform", 0}, {"shared", 2}}),
              testing::ExitedWithCode(2),
              "unknown --scheme=uniform-ecc \\(uniform\\|shared\\)");
}

/// Every enumerator of E survives to_string -> from_string, and an unknown
/// spelling throws naming all `n` accepted ones.
template <typename E>
void expect_spellings_invert(E (*from_string)(const std::string&), int n) {
  for (int i = 0; i < n; ++i) {
    const E e = static_cast<E>(i);
    EXPECT_EQ(from_string(to_string(e)), e) << to_string(e);
  }
  try {
    from_string("bogus");
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    for (int i = 0; i < n; ++i)
      EXPECT_NE(std::string(e.what()).find(to_string(static_cast<E>(i))),
                std::string::npos)
          << e.what();
  }
}

TEST(EnumSpellings, FromStringInvertsToStringForEveryEnumerator) {
  expect_spellings_invert(protect::scheme_from_string, 3);
  expect_spellings_invert(protect::cleaning_policy_from_string, 4);
  expect_spellings_invert(protect::due_policy_from_string, 3);
  expect_spellings_invert(fault::fault_target_from_string,
                          static_cast<int>(fault::kNumFaultTargets));
  expect_spellings_invert(sim::frontend_from_string, 2);
}

TEST(Table, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1.25"});
  t.add_row({"b", "100.00"});
  const std::string s = t.render();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("100.00"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, Formatting) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.125, 1), "12.5%");
}

// --- JSON string escaping -------------------------------------------------
// Bench tags and benchmark names flow into --json files verbatim; every
// byte a caller can put in a std::string must come out as valid JSON.

TEST(JsonEscape, QuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("C:\\temp\\x"), "C:\\\\temp\\\\x");
  EXPECT_EQ(json_escape("\\\""), "\\\\\\\"");
  // Already-escaped input must not be double-unescaped: the escaper is
  // byte-level, so a literal backslash-n becomes backslash-backslash-n.
  EXPECT_EQ(json_escape("\\n"), "\\\\n");
}

TEST(JsonEscape, ShortControlEscapes) {
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
}

TEST(JsonEscape, RemainingControlCharsAreUnicodeEscaped) {
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  // Embedded NUL must survive as \u0000, not truncate the string.
  std::string with_nul = "a";
  with_nul += '\0';
  with_nul += "b";
  EXPECT_EQ(json_escape(with_nul), "a\\u0000b");
}

TEST(JsonEscape, NonAsciiBytesPassThrough) {
  // UTF-8 multi-byte sequences (and any byte >= 0x20) are emitted raw:
  // JSON strings are UTF-8, and \u-escaping them would need surrogate
  // handling for no benefit. High bytes must not be sign-extended into
  // bogus \uffXX escapes.
  const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac";  // "café €"
  EXPECT_EQ(json_escape(utf8), utf8);
  EXPECT_EQ(json_escape(std::string(1, '\x80')), std::string(1, '\x80'));
  EXPECT_EQ(json_escape(std::string(1, '\xff')), std::string(1, '\xff'));
}

TEST(JsonValue, DumpEscapesKeysAndValues) {
  JsonValue obj = JsonValue::object();
  obj.set("tab\there", JsonValue::string("line\nbreak \"quoted\""));
  const std::string text = obj.dump(0);
  EXPECT_EQ(text, "{\"tab\\there\": \"line\\nbreak \\\"quoted\\\"\"}");
}

TEST(JsonValue, DumpEmitsNoRawControlBytes) {
  // There is no JSON parser in-tree, so the round-trip property is checked
  // structurally: a string containing every escape class dumps to text with
  // no raw control bytes anywhere.
  JsonValue obj = JsonValue::object();
  std::string nasty = "\"\\\b\f\n\r\t";
  nasty += '\x01';
  nasty += "\xc3\xa9";
  obj.set("k", JsonValue::string(nasty));
  const std::string text = obj.dump(0);
  for (const char c : text)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte";
}

// --- JSON parser ------------------------------------------------------------
// The aeep_served wire protocol round-trips frames as dump() -> socket ->
// json_parse(); the parser must invert the builder exactly and reject
// malformed frames with an error rather than a crash or a partial decode.

TEST(JsonParse, RoundTripsBuilderOutput) {
  JsonValue doc = JsonValue::object();
  doc.set("type", JsonValue::string("submit"));
  doc.set("id", JsonValue::number(u64{18446744073709551615ull}));
  doc.set("ratio", JsonValue::number(0.125));
  doc.set("ok", JsonValue::boolean(true));
  doc.set("none", JsonValue::null());
  JsonValue arr = JsonValue::array();
  arr.push(JsonValue::number(u64{1}));
  arr.push(JsonValue::string("two\n\"quoted\""));
  JsonValue inner = JsonValue::object();
  inner.set("k", JsonValue::boolean(false));
  arr.push(std::move(inner));
  doc.set("items", std::move(arr));

  for (const int indent : {0, 2}) {
    std::string error;
    const auto parsed = json_parse(doc.dump(indent), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    // Dump of the parse must equal dump of the original: same kinds, same
    // key order, same integer/double split.
    EXPECT_EQ(parsed->dump(2), doc.dump(2));
  }
}

TEST(JsonParse, AccessorsReadKindsAndDefaults) {
  const auto v = json_parse(
      R"({"n": 42, "d": 1.5, "s": "x", "b": true, "whole": 3.0})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->get_u64("n", 0), 42u);
  EXPECT_DOUBLE_EQ(v->get_double("d", 0), 1.5);
  EXPECT_DOUBLE_EQ(v->get_double("n", 0), 42.0);  // uint widens to double
  EXPECT_EQ(v->get_string("s", ""), "x");
  EXPECT_TRUE(v->get_bool("b", false));
  // A whole double reads back as u64 (far-side parsers may lose the split).
  EXPECT_EQ(v->get_u64("whole", 0), 3u);
  // Kind mismatch and absence both fall back to the default.
  EXPECT_EQ(v->get_u64("s", 7), 7u);
  EXPECT_EQ(v->get_string("missing", "def"), "def");
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8) {
  const auto v = json_parse(R"(["\u0041", "\u00e9", "\u20ac", "\ud83d\ude00"])");
  ASSERT_TRUE(v.has_value());
  const auto& e = v->elements();
  ASSERT_EQ(e.size(), 4u);
  EXPECT_EQ(e[0].as_string(), "A");
  EXPECT_EQ(e[1].as_string(), "\xc3\xa9");          // é
  EXPECT_EQ(e[2].as_string(), "\xe2\x82\xac");      // €
  EXPECT_EQ(e[3].as_string(), "\xf0\x9f\x98\x80");  // surrogate pair
}

TEST(JsonParse, RejectsMalformedInput) {
  const char* bad[] = {
      "",                        // empty
      "{",                       // unterminated object
      "[1, 2",                   // unterminated array
      "{\"a\": }",               // missing value
      "{\"a\" 1}",               // missing colon
      "{\"a\": 1,}",             // trailing comma is not accepted
      "\"abc",                   // unterminated string
      "\"bad \\q escape\"",      // unknown escape
      "\"\\u12g4\"",             // bad hex digit
      "01x",                     // trailing garbage on number
      "truest",                  // trailing garbage on literal
      "{} {}",                   // two documents
      "nul",                     // truncated literal
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(json_parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(JsonParse, WellFormedUtf8PassesThroughVerbatim) {
  const auto v = json_parse("[\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80\"]");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->elements()[0].as_string(),
            "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsInvalidUtf8InStrings) {
  // A single flipped bit inside a wire frame turns an ASCII byte into a
  // stray high byte; the parser must surface that as an error instead of
  // smuggling mojibake into accepted payloads.
  const char* bad[] = {
      "\"gz\x93p\"",          // lone continuation byte ('i' ^ 0xFF)
      "\"\xc3\"",             // truncated 2-byte sequence
      "\"\xc3(\"",            // continuation replaced by ASCII
      "\"\xc0\xaf\"",         // overlong encoding of '/'
      "\"\xe0\x80\x80\"",     // overlong 3-byte encoding
      "\"\xed\xa0\x80\"",     // UTF-8-encoded surrogate
      "\"\xf5\x80\x80\x80\"", // past U+10FFFF
      "\"\xff\"",             // not a UTF-8 lead byte at all
  };
  for (const char* text : bad) {
    std::string error;
    EXPECT_FALSE(json_parse(text, &error).has_value()) << text;
    EXPECT_NE(error.find("UTF-8"), std::string::npos) << text;
  }
}

TEST(JsonParse, DepthLimitStopsNestingBombs) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  std::string error;
  EXPECT_FALSE(json_parse(deep, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos);
  // At a sane depth the same shape parses fine.
  std::string ok(32, '[');
  ok += std::string(32, ']');
  EXPECT_TRUE(json_parse(ok).has_value());
}

TEST(JsonParse, NumbersSplitIntegerAndDouble) {
  const auto v = json_parse("[0, 18446744073709551615, -1, 2.5, 1e3]");
  ASSERT_TRUE(v.has_value());
  const auto& e = v->elements();
  ASSERT_EQ(e.size(), 5u);
  EXPECT_EQ(e[0].dump(0), "0");
  EXPECT_EQ(e[1].as_u64(), 18446744073709551615ull);
  // Negative integers carry as doubles (the wire schema is unsigned).
  EXPECT_DOUBLE_EQ(e[2].as_double(), -1.0);
  EXPECT_DOUBLE_EQ(e[3].as_double(), 2.5);
  EXPECT_DOUBLE_EQ(e[4].as_double(), 1000.0);
}

TEST(JsonParse, RepeatedKeyKeepsFirstPositionAndTakesLastValue) {
  // set()'s rule, for short objects and for long ones (past the length at
  // which the parser sorts keys instead of scanning them).
  for (const int n : {3, 40}) {
    std::string text = "{";
    JsonValue built;
    for (int i = 0; i < n; ++i) {
      std::string key = "k";
      key += std::to_string(i);
      text += '"';
      text += key;
      text += "\": ";
      text += std::to_string(i);
      text += ", ";
      built.set(key, JsonValue::number(u64(i)));
    }
    text += "\"k1\": 100, \"k0\": {\"k0\": 1, \"k0\": 2}, \"k1\": 101}";
    built.set("k1", JsonValue::number(u64{100}));
    built.set("k0", JsonValue::object().set("k0", JsonValue::number(u64{2})));
    built.set("k1", JsonValue::number(u64{101}));
    const auto v = json_parse(text);
    ASSERT_TRUE(v.has_value()) << n;
    EXPECT_EQ(v->dump(0), built.dump(0)) << n;
    ASSERT_EQ(v->members().size(), static_cast<std::size_t>(n)) << n;
    EXPECT_EQ(v->members()[0].first, "k0");
    EXPECT_EQ(v->members()[1].first, "k1");
    EXPECT_EQ(v->get_u64("k1"), 101u);
    EXPECT_EQ(v->find("k0")->get_u64("k0"), 2u);
  }
}

}  // namespace
}  // namespace aeep
