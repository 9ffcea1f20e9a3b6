// aeep_lint self-test: the lexer (comments/strings/raw strings must not
// leak into code tokens) and every rule, driven from embedded fixture
// strings through the same lint_file() entry point the binary uses. The
// "grep false positive" fixtures are the point of the tool: each plants a
// banned pattern inside a comment or string literal — where the old
// tools/lint.sh grep rules fired — and asserts the token-level rule stays
// quiet.
#include "analysis/lexer.hpp"
#include "analysis/rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace aeep::analysis {
namespace {

std::vector<Token> code_tokens(const std::string& src) {
  std::vector<Token> out;
  for (const Token& t : lex(src))
    if (t.kind != TokenKind::kComment) out.push_back(t);
  return out;
}

std::vector<std::string> rules_fired(const std::string& path,
                                     const std::string& src) {
  std::vector<std::string> out;
  for (const Finding& f : lint_file(path, src)) out.push_back(f.rule);
  return out;
}

bool fired(const std::string& path, const std::string& src,
           const std::string& rule) {
  const auto fs = rules_fired(path, src);
  return std::find(fs.begin(), fs.end(), rule) != fs.end();
}

// --- lexer -----------------------------------------------------------------

TEST(Lexer, SplitsIdentifiersNumbersAndPunct) {
  const auto toks = lex("int x = 42;");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[2].kind, TokenKind::kPunct);
  EXPECT_EQ(toks[3].kind, TokenKind::kNumber);
  EXPECT_EQ(toks[3].text, "42");
}

TEST(Lexer, LineCommentIsOneToken) {
  const auto toks = lex("x; // rand( fread( new delete\ny;");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[2].kind, TokenKind::kComment);
  EXPECT_EQ(toks[3].text, "y");
  EXPECT_EQ(toks[3].line, 2u);
}

TEST(Lexer, BlockCommentSpansLinesAndKeepsStartLine) {
  const auto toks = lex("a /* one\ntwo\nthree */ b");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[1].kind, TokenKind::kComment);
  EXPECT_EQ(toks[1].line, 1u);
  EXPECT_EQ(toks[2].text, "b");
  EXPECT_EQ(toks[2].line, 3u);
}

TEST(Lexer, StringWithEscapedQuoteStaysOneToken) {
  const auto toks = lex(R"(f("he said \"rand(\" loudly");)");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[2].kind, TokenKind::kString);
  EXPECT_NE(toks[2].text.find("rand("), std::string::npos);
}

TEST(Lexer, RawStringWithCustomDelimiter) {
  const auto toks = lex("auto s = R\"xy(contains )\" and rand( )xy\";");
  const auto it = std::find_if(toks.begin(), toks.end(), [](const Token& t) {
    return t.kind == TokenKind::kString;
  });
  ASSERT_NE(it, toks.end());
  EXPECT_NE(it->text.find("rand("), std::string::npos);
  // Nothing after the raw string except the semicolon.
  EXPECT_EQ(toks.back().text, ";");
}

TEST(Lexer, PrefixedStringsAreStrings) {
  for (const char* src : {"u8\"x\"", "u\"x\"", "U\"x\"", "L\"x\"",
                          "LR\"(x)\"", "u8R\"(x)\""}) {
    const auto toks = lex(src);
    ASSERT_EQ(toks.size(), 1u) << src;
    EXPECT_EQ(toks[0].kind, TokenKind::kString) << src;
  }
}

TEST(Lexer, DigitSeparatorsStayOneNumber) {
  const auto toks = lex("x = 1'000'000;");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[2].kind, TokenKind::kNumber);
  EXPECT_EQ(toks[2].text, "1'000'000");
}

TEST(Lexer, ScopeAndArrowAreSingleTokens) {
  const auto toks = lex("std::foo(); p->bar();");
  EXPECT_EQ(toks[1].text, "::");
  EXPECT_EQ(toks[1].kind, TokenKind::kPunct);
  const auto it = std::find_if(toks.begin(), toks.end(), [](const Token& t) {
    return t.text == "->";
  });
  ASSERT_NE(it, toks.end());
  EXPECT_EQ(it->kind, TokenKind::kPunct);
}

TEST(Lexer, CharLiteralWithEscape) {
  const auto toks = lex(R"(c = '\'')");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[2].kind, TokenKind::kCharLiteral);
  EXPECT_EQ(toks[2].text, R"('\'')");
}

TEST(Lexer, UnterminatedLiteralDoesNotThrow) {
  EXPECT_NO_THROW(lex("auto s = \"never closed"));
  EXPECT_NO_THROW(lex("/* never closed"));
  EXPECT_NO_THROW(lex("auto s = R\"(never closed"));
}

TEST(Lexer, CommentStrippingLeavesOnlyCode) {
  const auto code = code_tokens("a // b\n/* c */ d");
  ASSERT_EQ(code.size(), 2u);
  EXPECT_EQ(code[0].text, "a");
  EXPECT_EQ(code[1].text, "d");
}

// --- raw-rand --------------------------------------------------------------

TEST(RawRand, FiresOnCallAndReportsLine) {
  const auto fs = lint_file("src/x.cpp", "void f() {\n  int v = rand();\n}");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "raw-rand");
  EXPECT_EQ(fs[0].line, 2u);
  EXPECT_EQ(fs[0].file, "src/x.cpp");
}

TEST(RawRand, FiresOnSrand) {
  EXPECT_TRUE(fired("src/x.cpp", "srand(42);", "raw-rand"));
}

TEST(RawRand, GrepFalsePositiveInCommentIsQuiet) {
  // The old grep rule fired on this exact line.
  EXPECT_FALSE(fired("src/x.cpp", "// never call rand() here\nint x;",
                     "raw-rand"));
}

TEST(RawRand, GrepFalsePositiveInStringIsQuiet) {
  EXPECT_FALSE(fired("src/x.cpp",
                     "const char* msg = \"rand() is banned\";", "raw-rand"));
}

TEST(RawRand, IdentifierContainingRandIsQuiet) {
  EXPECT_FALSE(fired("src/x.cpp", "int operand(int x);", "raw-rand"));
  EXPECT_FALSE(fired("src/x.cpp", "int rand_like = 3;", "raw-rand"));
}

// --- unchecked-optional-value ----------------------------------------------

TEST(OptionalValue, FiresOnUncheckedDeref) {
  EXPECT_TRUE(fired("src/x.cpp", "auto v = parse(text).value();",
                    "unchecked-optional-value"));
}

TEST(OptionalValue, CounterAndGaugeAccessorsExempt) {
  EXPECT_FALSE(fired("src/x.cpp", "auto v = reg.counter(\"hits\").value();",
                     "unchecked-optional-value"));
  EXPECT_FALSE(fired("src/x.cpp", "auto v = reg.gauge(\"depth\").value();",
                     "unchecked-optional-value"));
}

TEST(OptionalValue, NestedParensInsideCounterCallStillExempt) {
  EXPECT_FALSE(fired("src/x.cpp",
                     "auto v = reg.counter(name(a, b)).value();",
                     "unchecked-optional-value"));
}

TEST(OptionalValue, GrepFalsePositiveInStringIsQuiet) {
  EXPECT_FALSE(fired("src/x.cpp",
                     "const char* s = \"call opt(x).value() carefully\";",
                     "unchecked-optional-value"));
}

// --- stats-reset -----------------------------------------------------------

TEST(StatsReset, HeaderWithStatsStructAndNoResetFires) {
  EXPECT_TRUE(fired("src/foo/bar.hpp", "struct FooStats { int hits = 0; };",
                    "stats-reset"));
}

TEST(StatsReset, ResetStatsSatisfies) {
  EXPECT_FALSE(fired("src/foo/bar.hpp",
                     "struct FooStats { int hits = 0; };\n"
                     "class Foo { void reset_stats(); };",
                     "stats-reset"));
}

TEST(StatsReset, ResetMetricsSatisfies) {
  EXPECT_FALSE(fired("src/foo/bar.hpp",
                     "struct FooStats {};\nvoid reset_metrics();",
                     "stats-reset"));
}

TEST(StatsReset, MutableStatsAccessorSatisfies) {
  EXPECT_FALSE(fired("src/foo/bar.hpp",
                     "struct FooStats {};\n"
                     "class Foo { FooStats& stats() { return s_; } };",
                     "stats-reset"));
}

TEST(StatsReset, OnlyAppliesToSrcHeaders) {
  const std::string src = "struct FooStats { int hits = 0; };";
  EXPECT_FALSE(fired("src/foo/bar.cpp", src, "stats-reset"));
  EXPECT_FALSE(fired("tests/bar.hpp", src, "stats-reset"));
  EXPECT_FALSE(fired("bench/bar.hpp", src, "stats-reset"));
}

TEST(StatsReset, GrepFalsePositiveInCommentIsQuiet) {
  // The old grep rule keyed off the words `struct ...Stats` anywhere.
  EXPECT_FALSE(fired("src/foo/bar.hpp",
                     "// mirrors struct FooStats in sibling header\nint x;",
                     "stats-reset"));
}

// --- ecc-allocating-codec --------------------------------------------------

TEST(EccAlloc, FiresOnVectorReturningEncodeInEcc) {
  EXPECT_TRUE(fired("src/ecc/parity.hpp",
                    "std::vector<u8> encode(const u8* in);",
                    "ecc-allocating-codec"));
}

TEST(EccAlloc, QualifiedDefinitionFires) {
  EXPECT_TRUE(fired("src/ecc/parity.cpp",
                    "std::vector<u8> Codec::decode(Span in) { return {}; }",
                    "ecc-allocating-codec"));
}

TEST(EccAlloc, NestedTemplateArgsHandled) {
  EXPECT_TRUE(fired("src/ecc/parity.hpp",
                    "std::vector<std::pair<u8, u8>> encode(Span in);",
                    "ecc-allocating-codec"));
}

TEST(EccAlloc, AllocSuffixAndOtherNamesQuiet) {
  // The *_alloc suffix is no escape hatch: it is still an encode...
  EXPECT_TRUE(fired("src/ecc/parity.hpp",
                    "std::vector<u8> encode_alloc(const u8* in);",
                    "ecc-allocating-codec"));
  // ...while a name outside the encode/decode family stays quiet.
  EXPECT_FALSE(fired("src/ecc/parity.hpp",
                     "std::vector<u8> syndromes(const u8* in);",
                     "ecc-allocating-codec"));
}

TEST(EccAlloc, OutsideEccIsQuiet) {
  EXPECT_FALSE(fired("src/trace/codec.hpp",
                     "std::vector<u8> encode(const u8* in);",
                     "ecc-allocating-codec"));
}

// --- raw-file-io -----------------------------------------------------------

TEST(RawFileIo, FiresInSrcAndTools) {
  EXPECT_TRUE(fired("src/x.cpp", "fread(buf, 1, n, f);", "raw-file-io"));
  EXPECT_TRUE(
      fired("tools/x.cpp", "std::fwrite(buf, 1, n, f);", "raw-file-io"));
}

TEST(RawFileIo, TraceIoAndTestsExempt) {
  EXPECT_FALSE(
      fired("src/trace/io.cpp", "fread(buf, 1, n, f);", "raw-file-io"));
  EXPECT_FALSE(
      fired("tests/trace_test.cpp", "fwrite(buf, 1, n, f);", "raw-file-io"));
}

TEST(RawFileIo, GrepFalsePositiveInCommentIsQuiet) {
  EXPECT_FALSE(fired("src/x.cpp", "// fread( would be wrong here\nint x;",
                     "raw-file-io"));
}

// --- raw-socket ------------------------------------------------------------

TEST(RawSocket, FiresOnGlobalCalls) {
  EXPECT_TRUE(fired("src/x.cpp", "int fd = socket(AF_INET, 0, 0);",
                    "raw-socket"));
  EXPECT_TRUE(fired("src/x.cpp", "::send(fd, p, n, 0);", "raw-socket"));
  EXPECT_TRUE(fired("tests/x.cpp", "recv(fd, p, n, 0);", "raw-socket"));
}

TEST(RawSocket, MemberCallsExempt) {
  // The grep rule's `[^._[:alnum:]]` guard, kept: sock.send(...) is a
  // helper method, not the libc call.
  EXPECT_FALSE(fired("src/x.cpp", "sock.send(frame);", "raw-socket"));
  EXPECT_FALSE(fired("src/x.cpp", "sock->recv(frame);", "raw-socket"));
}

TEST(RawSocket, SocketWrapperFilesExempt) {
  EXPECT_FALSE(fired("src/server/socket.cpp", "::send(fd, p, n, 0);",
                     "raw-socket"));
  EXPECT_FALSE(fired("src/server/socket.hpp", "recv(fd, p, n, 0);",
                     "raw-socket"));
}

TEST(RawSocket, GrepFalsePositiveInStringIsQuiet) {
  EXPECT_FALSE(fired("src/x.cpp",
                     "const char* m = \"socket(...) failed\";", "raw-socket"));
}

// --- mutex-guard -----------------------------------------------------------

TEST(MutexGuard, StdMutexMemberWithoutGuardFires) {
  const std::string src =
      "class Q {\n"
      "  std::mutex mutex_;\n"
      "  int jobs_ = 0;\n"
      "};";
  const auto fs = lint_file("src/x.hpp", src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "mutex-guard");
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(MutexGuard, AeepMutexMemberWithoutGuardFires) {
  EXPECT_TRUE(fired("src/x.hpp",
                    "class Q {\n  aeep::Mutex mutex_;\n  int jobs_;\n};",
                    "mutex-guard"));
}

TEST(MutexGuard, GuardedSiblingSatisfies) {
  EXPECT_FALSE(fired("src/x.hpp",
                     "class Q {\n"
                     "  aeep::Mutex mutex_;\n"
                     "  int jobs_ AEEP_GUARDED_BY(mutex_) = 0;\n"
                     "};",
                     "mutex-guard"));
}

TEST(MutexGuard, PtGuardedSatisfies) {
  EXPECT_FALSE(fired("src/x.hpp",
                     "class Q {\n"
                     "  std::mutex mutex_;\n"
                     "  Foo* p_ AEEP_PT_GUARDED_BY(mutex_) = nullptr;\n"
                     "};",
                     "mutex-guard"));
}

TEST(MutexGuard, NestedClassesTrackedIndependently) {
  const std::string src =
      "class Outer {\n"
      "  struct Inner {\n"
      "    std::mutex m;\n"
      "    int x AEEP_GUARDED_BY(m);\n"
      "  };\n"
      "  std::mutex mutex_;\n"  // line 6: unguarded
      "  int y;\n"
      "};";
  const auto fs = lint_file("src/x.hpp", src);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 6u);
}

TEST(MutexGuard, LocalMutexInFunctionIsQuiet) {
  EXPECT_FALSE(fired("src/x.cpp",
                     "void f() {\n  std::mutex m;\n  int x = 0;\n}",
                     "mutex-guard"));
}

TEST(MutexGuard, OnlyAppliesInSrc) {
  const std::string src = "class Q {\n  std::mutex m_;\n  int x_;\n};";
  EXPECT_FALSE(fired("tests/x.cpp", src, "mutex-guard"));
  EXPECT_FALSE(fired("tools/x.cpp", src, "mutex-guard"));
}

TEST(MutexGuard, MutexWrapperHeaderItselfExempt) {
  // src/common/mutex.hpp's Mutex holds the raw std::mutex it wraps.
  EXPECT_FALSE(fired("src/common/mutex.hpp",
                     "class Mutex {\n  std::mutex impl_;\n};",
                     "mutex-guard"));
}

// --- thread-detach ---------------------------------------------------------

TEST(ThreadDetach, FiresOnDetach) {
  EXPECT_TRUE(fired("src/x.cpp", "t.detach();", "thread-detach"));
  EXPECT_TRUE(fired("tools/x.cpp", "worker->detach();", "thread-detach"));
}

TEST(ThreadDetach, DetachWordElsewhereQuiet) {
  EXPECT_FALSE(fired("src/x.cpp", "void detach_all();", "thread-detach"));
  EXPECT_FALSE(fired("src/x.cpp", "// never t.detach() a worker\nint x;",
                     "thread-detach"));
}

// --- naked-new-delete ------------------------------------------------------

TEST(NakedNew, FiresOnNewAndDelete) {
  EXPECT_TRUE(fired("src/x.cpp", "auto* p = new Foo();", "naked-new-delete"));
  EXPECT_TRUE(fired("src/x.cpp", "delete p;", "naked-new-delete"));
}

TEST(NakedNew, DeletedFunctionsAndOperatorOverloadsQuiet) {
  EXPECT_FALSE(
      fired("src/x.hpp", "Foo(const Foo&) = delete;", "naked-new-delete"));
  EXPECT_FALSE(fired("src/x.hpp", "void* operator new(std::size_t);",
                     "naked-new-delete"));
  EXPECT_FALSE(fired("src/x.hpp", "void operator delete(void*) noexcept;",
                     "naked-new-delete"));
}

TEST(NakedNew, GrepFalsePositivesQuiet) {
  // The real repo's only grep hits were in comments and strings.
  EXPECT_FALSE(fired("src/x.cpp", "// allocate a new entry per connection\n",
                     "naked-new-delete"));
  EXPECT_FALSE(fired("src/x.cpp",
                     "const char* m = \"new trace replaces the old\";",
                     "naked-new-delete"));
}

TEST(NakedNew, OnlyAppliesInSrc) {
  EXPECT_FALSE(fired("tests/x.cpp", "auto* p = new Foo();",
                     "naked-new-delete"));
  EXPECT_FALSE(fired("bench/x.cpp", "delete p;", "naked-new-delete"));
}

TEST(NakedNew, AllowCommentForFreeListCode) {
  EXPECT_FALSE(fired("src/x.cpp",
                     "// aeep-lint: allow(naked-new-delete)\n"
                     "auto* node = new Node();",
                     "naked-new-delete"));
}

// --- sleep-in-src ----------------------------------------------------------

TEST(SleepInSrc, FiresInSrcOnly) {
  const std::string src =
      "std::this_thread::sleep_for(std::chrono::milliseconds(10));";
  EXPECT_TRUE(fired("src/x.cpp", src, "sleep-in-src"));
  EXPECT_FALSE(fired("tests/x.cpp", src, "sleep-in-src"));
  EXPECT_FALSE(fired("tools/x.cpp", src, "sleep-in-src"));
}

TEST(SleepInSrc, SleepUntilAlsoFires) {
  EXPECT_TRUE(fired("src/x.cpp",
                    "std::this_thread::sleep_until(deadline);",
                    "sleep-in-src"));
}

// --- deque-in-hot-path -----------------------------------------------------

TEST(HotQueue, FiresOnDequeAndQueueInSimAndServer) {
  EXPECT_TRUE(fired("src/sim/x.hpp", "std::deque<Cycle> ages_;",
                    "deque-in-hot-path"));
  EXPECT_TRUE(fired("src/server/x.hpp", "std::queue<Job> pending_;",
                    "deque-in-hot-path"));
  EXPECT_TRUE(fired("src/sim/x.cpp", "std::deque<u64> local;",
                    "deque-in-hot-path"));
}

TEST(HotQueue, FiresInTheCorePipeline) {
  EXPECT_TRUE(fired("src/cpu/core.hpp", "std::deque<MicroOp> fetchq_;",
                    "deque-in-hot-path"));
  EXPECT_TRUE(fired("src/cpu/x.cpp", "std::queue<u64> wakeups;",
                    "deque-in-hot-path"));
}

TEST(HotQueue, OtherDirsAndOtherContainersQuiet) {
  // The ban is scoped to the lock-free hot paths, not the whole tree.
  EXPECT_FALSE(fired("src/trace/x.hpp", "std::deque<Record> backlog_;",
                     "deque-in-hot-path"));
  EXPECT_FALSE(fired("tests/x.cpp", "std::queue<int> q;",
                     "deque-in-hot-path"));
  EXPECT_FALSE(fired("src/sim/x.hpp", "std::vector<Cycle> stamps_;",
                     "deque-in-hot-path"));
  // priority_queue is a different beast (an ordered heap, not a FIFO).
  EXPECT_FALSE(fired("src/sim/x.hpp", "std::priority_queue<Ev> evq_;",
                     "deque-in-hot-path"));
}

TEST(HotQueue, GrepFalsePositivesQuiet) {
  EXPECT_FALSE(fired("src/sim/x.cpp",
                     "// the old std::deque<Entry> FIFO is gone\n",
                     "deque-in-hot-path"));
  EXPECT_FALSE(fired("src/sim/x.cpp", "#include <deque>\n",
                     "deque-in-hot-path"));
}

TEST(HotQueue, AllowCommentSuppresses) {
  EXPECT_FALSE(fired("src/server/x.hpp",
                     "// aeep-lint: allow(deque-in-hot-path)\n"
                     "std::deque<Cold> cold_path_;",
                     "deque-in-hot-path"));
}

// --- allow-comments --------------------------------------------------------

TEST(Allow, TrailingCommentSuppressesSameLine) {
  EXPECT_FALSE(fired("src/x.cpp",
                     "int v = rand();  // aeep-lint: allow(raw-rand)",
                     "raw-rand"));
}

TEST(Allow, PrecedingLineSuppressesNextLine) {
  EXPECT_FALSE(fired("src/x.cpp",
                     "// aeep-lint: allow(raw-rand)\nint v = rand();",
                     "raw-rand"));
}

TEST(Allow, ListedRulesAllSuppressed) {
  const std::string src =
      "// aeep-lint: allow(raw-rand, raw-file-io)\n"
      "int v = rand(); fread(b, 1, n, f);";
  EXPECT_FALSE(fired("src/x.cpp", src, "raw-rand"));
  EXPECT_FALSE(fired("src/x.cpp", src, "raw-file-io"));
}

TEST(Allow, WrongRuleDoesNotSuppress) {
  EXPECT_TRUE(fired("src/x.cpp",
                    "// aeep-lint: allow(raw-file-io)\nint v = rand();",
                    "raw-rand"));
}

TEST(Allow, DoesNotLeakPastOneLine) {
  EXPECT_TRUE(fired("src/x.cpp",
                    "// aeep-lint: allow(raw-rand)\nint a;\nint v = rand();",
                    "raw-rand"));
}

// --- raw-fs-call -----------------------------------------------------------

TEST(RawFsCall, FiresOnBareAndStdQualifiedCalls) {
  EXPECT_TRUE(fired("src/server/x.cpp", "void f() { fopen(\"a\", \"r\"); }",
                    "raw-fs-call"));
  EXPECT_TRUE(fired("src/server/x.cpp",
                    "void f() { std::rename(\"a\", \"b\"); }", "raw-fs-call"));
  EXPECT_TRUE(fired("tools/x.cpp", "void f() { remove(p.c_str()); }",
                    "raw-fs-call"));
}

TEST(RawFsCall, StoreTraceAndTestsAreExempt) {
  const std::string src = "void f() { std::fopen(\"a\", \"r\"); }";
  EXPECT_FALSE(fired("src/store/result_store.cpp", src, "raw-fs-call"));
  EXPECT_FALSE(fired("src/trace/io.cpp", src, "raw-fs-call"));
  EXPECT_FALSE(fired("tests/store_test.cpp", src, "raw-fs-call"));
  EXPECT_TRUE(fired("src/server/x.cpp", src, "raw-fs-call"));
}

TEST(RawFsCall, MemberAndCheckedWrapperCallsAreQuiet) {
  // Someone else's API, not the libc call.
  EXPECT_FALSE(fired("src/server/x.cpp", "void f() { log_.open(path); }",
                     "raw-fs-call"));
  // std::filesystem::rename is the checked wrapper the store itself uses.
  EXPECT_FALSE(fired("src/server/x.cpp",
                     "void f() { std::filesystem::rename(a, b, ec); }",
                     "raw-fs-call"));
  // A declaration, not a call.
  EXPECT_FALSE(fired("src/server/x.hpp", "struct L { void open(int fd); };",
                     "raw-fs-call"));
}

TEST(RawFsCall, AlgorithmStdRemoveFiresAndNeedsAllowComment) {
  // Token-wise the algorithm std::remove is the libc file call; the
  // erase-remove idiom therefore needs an allow comment (the tree uses
  // std::erase / explicit loops instead, so none exist today).
  EXPECT_TRUE(fired("src/server/x.cpp",
                    "void f(std::vector<int>& v) {\n"
                    "  v.erase(std::remove(v.begin(), v.end(), 3), v.end());\n"
                    "}",
                    "raw-fs-call"));
}

TEST(RawFsCall, AllowCommentSuppresses) {
  EXPECT_FALSE(fired(
      "src/server/x.cpp",
      "FILE* f = std::fopen(p, \"w\");  // aeep-lint: allow(raw-fs-call)",
      "raw-fs-call"));
}

TEST(RawFsCall, GrepFalsePositiveInCommentOrStringIsQuiet) {
  EXPECT_FALSE(fired("src/server/x.cpp",
                     "// fopen(\"x\") would be wrong here\n"
                     "const char* kMsg = \"rename (file) failed\";\n",
                     "raw-fs-call"));
}

// --- raw-clock -------------------------------------------------------------

TEST(RawClock, FiresOnSteadyClockInSrcOutsideMetrics) {
  const std::string src =
      "const auto t0 = std::chrono::steady_clock::now();";
  EXPECT_TRUE(fired("src/server/x.cpp", src, "raw-clock"));
  EXPECT_TRUE(fired("src/sim/x.cpp", src, "raw-clock"));
  EXPECT_TRUE(fired("src/fabric/x.hpp",
                    "using Clock = std::chrono::steady_clock;", "raw-clock"));
  EXPECT_TRUE(fired("src/x.cpp",
                    "auto t = std::chrono::high_resolution_clock::now();",
                    "raw-clock"));
}

TEST(RawClock, MetricsTestsAndToolsAreExempt) {
  const std::string src =
      "const auto t0 = std::chrono::steady_clock::now();";
  // src/metrics/clock.hpp is the one sanctioned wrapper; tests and tools
  // measure whatever they like.
  EXPECT_FALSE(fired("src/metrics/clock.hpp", src, "raw-clock"));
  EXPECT_FALSE(fired("tests/x.cpp", src, "raw-clock"));
  EXPECT_FALSE(fired("bench/x.cpp", src, "raw-clock"));
}

TEST(RawClock, MetricsHelpersAndCommentsAreQuiet) {
  EXPECT_FALSE(fired("src/server/x.cpp",
                     "const auto t0 = metrics::now();\n"
                     "h.record(metrics::us_since(t0));\n"
                     "// steady_clock would be banned here\n",
                     "raw-clock"));
}

TEST(RawClock, AllowCommentSuppresses) {
  EXPECT_FALSE(fired("src/server/x.cpp",
                     "auto t = std::chrono::steady_clock::now();"
                     "  // aeep-lint: allow(raw-clock)",
                     "raw-clock"));
}

// --- reporting surface -----------------------------------------------------

TEST(Report, FormatFindingIsFileLineRuleMessage) {
  const Finding f{"raw-rand", "src/x.cpp", 7, "message text"};
  EXPECT_EQ(format_finding(f), "src/x.cpp:7: [raw-rand] message text");
}

TEST(Report, CatalogNamesAreUniqueAndNonEmpty) {
  const auto& catalog = rule_catalog();
  EXPECT_EQ(catalog.size(), 13u);
  std::vector<std::string> names;
  for (const auto& r : catalog) {
    EXPECT_FALSE(r.name.empty());
    EXPECT_FALSE(r.description.empty());
    names.push_back(r.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(Report, CleanFileHasNoFindings) {
  EXPECT_TRUE(lint_file("src/x.cpp",
                        "#include <memory>\n"
                        "auto p = std::make_unique<int>(3);\n")
                  .empty());
}

}  // namespace
}  // namespace aeep::analysis
