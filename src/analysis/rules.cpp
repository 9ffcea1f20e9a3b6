#include "analysis/rules.hpp"

#include <set>
#include <utility>

namespace aeep::analysis {

namespace {

// Rule names — these are what allow-comments and reports use.
constexpr const char* kRawRand = "raw-rand";
constexpr const char* kOptionalValue = "unchecked-optional-value";
constexpr const char* kStatsReset = "stats-reset";
constexpr const char* kEccAlloc = "ecc-allocating-codec";
constexpr const char* kRawFileIo = "raw-file-io";
constexpr const char* kRawFsCall = "raw-fs-call";
constexpr const char* kRawSocket = "raw-socket";
constexpr const char* kMutexGuard = "mutex-guard";
constexpr const char* kThreadDetach = "thread-detach";
constexpr const char* kNakedNew = "naked-new-delete";
constexpr const char* kSleep = "sleep-in-src";
constexpr const char* kHotQueue = "deque-in-hot-path";
constexpr const char* kRawClock = "raw-clock";

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Lines suppressed per rule by `aeep-lint: allow(rule, ...)` comments. An
/// allow on line N covers findings on N (trailing comment) and N+1
/// (comment on its own line above the code).
class AllowSet {
 public:
  explicit AllowSet(const std::vector<Token>& tokens) {
    for (const Token& t : tokens) {
      if (t.kind != TokenKind::kComment) continue;
      const auto marker = t.text.find("aeep-lint:");
      if (marker == std::string::npos) continue;
      const auto open = t.text.find("allow(", marker);
      if (open == std::string::npos) continue;
      const auto close = t.text.find(')', open);
      if (close == std::string::npos) continue;
      std::string list = t.text.substr(open + 6, close - open - 6);
      std::string rule;
      auto flush = [&] {
        if (!rule.empty()) {
          allowed_.emplace(t.line, rule);
          allowed_.emplace(t.line + 1, rule);
        }
        rule.clear();
      };
      for (const char c : list) {
        if (c == ',') flush();
        else if (c != ' ' && c != '\t') rule += c;
      }
      flush();
    }
  }

  bool allowed(const std::string& rule, std::size_t line) const {
    return allowed_.count({line, rule}) != 0;
  }

 private:
  std::set<std::pair<std::size_t, std::string>> allowed_;
};

/// Shared per-file context handed to each rule.
struct FileContext {
  const std::string& path;
  const std::vector<Token>& code;  ///< comment tokens stripped
  const AllowSet& allows;
  std::vector<Finding>& findings;

  void report(const char* rule, std::size_t line, std::string message) {
    if (allows.allowed(rule, line)) return;
    findings.push_back(Finding{rule, path, line, std::move(message)});
  }
};

// --- rule: raw-rand --------------------------------------------------------
// rand()/srand() calls: all stochastic behaviour must flow from a seeded
// Xorshift64Star so every run is exactly reproducible.
void check_raw_rand(FileContext& ctx) {
  const auto& code = ctx.code;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if ((is_ident(code[i], "rand") || is_ident(code[i], "srand")) &&
        is_punct(code[i + 1], "(")) {
      ctx.report(kRawRand, code[i].line,
                 "raw " + code[i].text +
                     "() is banned; use a seeded Xorshift64Star");
    }
  }
}

// --- rule: unchecked-optional-value ----------------------------------------
// `).value()` dereferences an optional unchecked. The stats-registry
// Counter/Gauge accessors are exempt — their value() returns a plain
// integer, not an optional — and the token matcher resolves the exemption
// by finding the actual callee instead of grepping the whole line.
void check_optional_value(FileContext& ctx) {
  const auto& code = ctx.code;
  for (std::size_t i = 0; i + 4 < code.size(); ++i) {
    if (!(is_punct(code[i], ")") && is_punct(code[i + 1], ".") &&
          is_ident(code[i + 2], "value") && is_punct(code[i + 3], "(") &&
          is_punct(code[i + 4], ")")))
      continue;
    // Walk back over the balanced call to find the callee identifier.
    std::size_t depth = 1;
    std::size_t j = i;
    while (j > 0 && depth > 0) {
      --j;
      if (is_punct(code[j], ")")) ++depth;
      else if (is_punct(code[j], "(")) --depth;
    }
    const bool exempt =
        depth == 0 && j > 0 &&
        (is_ident(code[j - 1], "counter") || is_ident(code[j - 1], "gauge"));
    if (!exempt) {
      ctx.report(kOptionalValue, code[i + 2].line,
                 "unchecked ).value() is banned; test the optional first");
    }
  }
}

// --- rule: stats-reset -----------------------------------------------------
// A header declaring a `struct ...Stats` must also declare a reset path
// (reset_stats / reset_metrics, or a non-const `...Stats& stats()`
// accessor), so warm-up resets cannot silently skip it.
void check_stats_reset(FileContext& ctx) {
  const auto& code = ctx.code;
  std::size_t first_struct_line = 0;
  std::string first_struct_name;
  bool has_reset = false;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if ((t.text == "struct") && i + 1 < code.size() &&
        code[i + 1].kind == TokenKind::kIdentifier &&
        ends_with(code[i + 1].text, "Stats") && first_struct_line == 0) {
      first_struct_line = t.line;
      first_struct_name = code[i + 1].text;
    }
    if (t.text == "reset_stats" || t.text == "reset_metrics")
      has_reset = true;
    if (ends_with(t.text, "Stats") && i + 4 < code.size() &&
        is_punct(code[i + 1], "&") &&
        is_ident(code[i + 2], "stats") && is_punct(code[i + 3], "(") &&
        is_punct(code[i + 4], ")"))
      has_reset = true;
  }
  if (first_struct_line != 0 && !has_reset) {
    ctx.report(kStatsReset, first_struct_line,
               "struct " + first_struct_name +
                   " has no reset path (reset_stats/reset_metrics or a "
                   "non-const ...Stats& stats() accessor); warm-up would "
                   "leak into it");
  }
}

// --- rule: ecc-allocating-codec --------------------------------------------
// Under src/ecc/, functions named encode/decode, or encode_*/decode_*,
// must not return std::vector — the codec API is allocation-free by
// contract, and a suffix does not make an allocating encode acceptable.
bool is_codec_entry(const std::string& name) {
  return name == "encode" || name == "decode" ||
         starts_with(name, "encode_") || starts_with(name, "decode_");
}

void check_ecc_alloc(FileContext& ctx) {
  const auto& code = ctx.code;
  for (std::size_t i = 0; i + 4 < code.size(); ++i) {
    if (!(is_ident(code[i], "std") && is_punct(code[i + 1], "::") &&
          is_ident(code[i + 2], "vector") && is_punct(code[i + 3], "<")))
      continue;
    // Skip the balanced template argument list.
    std::size_t depth = 1;
    std::size_t j = i + 4;
    while (j < code.size() && depth > 0) {
      if (is_punct(code[j], "<")) ++depth;
      else if (is_punct(code[j], ">")) --depth;
      ++j;
    }
    // Qualified declarator: Namespace::Class::encode — land on the last
    // identifier in the chain.
    while (j + 1 < code.size() &&
           code[j].kind == TokenKind::kIdentifier &&
           is_punct(code[j + 1], "::"))
      j += 2;
    if (j + 1 < code.size() && code[j].kind == TokenKind::kIdentifier &&
        is_codec_entry(code[j].text) && is_punct(code[j + 1], "(")) {
      ctx.report(kEccAlloc, code[j].line,
                 "std::vector-returning " + code[j].text +
                     "() is banned under src/ecc/; use the span "
                     "scratch-buffer API");
    }
  }
}

// --- rule: raw-file-io -----------------------------------------------------
// Binary file I/O must go through trace::FileReader/FileWriter, which turn
// short reads/writes into typed TraceErrors.
void check_raw_file_io(FileContext& ctx) {
  const auto& code = ctx.code;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if ((is_ident(code[i], "fread") || is_ident(code[i], "fwrite")) &&
        is_punct(code[i + 1], "(")) {
      ctx.report(kRawFileIo, code[i].line,
                 "raw " + code[i].text +
                     "() outside src/trace/io is banned; use "
                     "trace::FileReader/FileWriter so short I/O raises a "
                     "typed error");
    }
  }
}

// --- rule: raw-fs-call -----------------------------------------------------
// File lifecycle calls (fopen/rename/remove/...) outside src/store and
// src/trace: the result store's crash-safety story (append + flush,
// write-temp-then-rename, torn-tail truncation) only holds if nothing else
// in the tree opens or renames files behind its back. Everything else goes
// through trace::FileReader/FileWriter or the store; the handful of
// deliberate call sites (the access log's rotation, report writers) carry
// an allow-comment each so a new one is a conscious decision.
void check_raw_fs_call(FileContext& ctx) {
  const auto& code = ctx.code;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "fopen" && t.text != "freopen" && t.text != "rename" &&
        t.text != "remove" && t.text != "unlink" && t.text != "creat" &&
        t.text != "open")
      continue;
    if (!is_punct(code[i + 1], "(")) continue;
    if (i > 0) {
      const Token& prev = code[i - 1];
      // Member calls (log_.open, vec.remove) are someone else's API.
      if (is_punct(prev, ".") || is_punct(prev, "->")) continue;
      // Qualified names: only std::X is the banned libc call —
      // std::filesystem::rename is the checked wrapper, AccessLog::open a
      // definition.
      if (is_punct(prev, "::")) {
        if (!(i >= 2 && is_ident(code[i - 2], "std"))) continue;
      } else if (prev.kind == TokenKind::kIdentifier) {
        // `void open(`-style declarations: a preceding identifier is a
        // return type or specifier, not a call position.
        continue;
      }
    }
    ctx.report(kRawFsCall, t.line,
               "direct " + t.text +
                   "() outside src/store and src/trace is banned; use "
                   "trace::FileReader/FileWriter or the result store "
                   "(deliberate: aeep-lint: allow(raw-fs-call))");
  }
}

// --- rule: raw-socket ------------------------------------------------------
// Network I/O must go through server::Socket/Listener, which retry short
// transfers and EINTR and raise typed ServerErrors.
void check_raw_socket(FileContext& ctx) {
  const auto& code = ctx.code;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "socket" && t.text != "send" && t.text != "recv" &&
        t.text != "sendto" && t.text != "recvfrom")
      continue;
    if (!is_punct(code[i + 1], "(")) continue;
    // Member calls (sock.send_all-style helpers) are someone else's API;
    // the ban is on the global C functions.
    if (i > 0 && (is_punct(code[i - 1], ".") || is_punct(code[i - 1], "->")))
      continue;
    ctx.report(kRawSocket, t.line,
               "raw " + t.text +
                   "() outside src/server/socket.* is banned; use "
                   "server::Socket/Listener so short transfers raise a "
                   "typed error");
  }
}

// --- rule: mutex-guard -----------------------------------------------------
// A class holding a mutex member must annotate at least one member with
// AEEP_GUARDED_BY / AEEP_PT_GUARDED_BY — otherwise Clang's thread-safety
// analysis has nothing to check and the mutex guards only by convention.
void check_mutex_guard(FileContext& ctx) {
  const auto& code = ctx.code;

  struct ClassScope {
    std::size_t open_depth = 0;
    std::size_t mutex_line = 0;  ///< 0: no mutex member seen
    bool has_guard = false;
  };
  std::vector<ClassScope> stack;
  std::size_t depth = 0;
  bool pending_class = false;

  auto is_mutex_type = [](const std::string& s) {
    return s == "mutex" || s == "timed_mutex" || s == "recursive_mutex" ||
           s == "recursive_timed_mutex" || s == "shared_mutex" ||
           s == "shared_timed_mutex";
  };

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (is_punct(t, "{")) {
      if (pending_class) {
        stack.push_back(ClassScope{depth, 0, false});
        pending_class = false;
      }
      ++depth;
      continue;
    }
    if (is_punct(t, "}")) {
      if (depth > 0) --depth;
      if (!stack.empty() && stack.back().open_depth == depth) {
        const ClassScope done = stack.back();
        stack.pop_back();
        if (done.mutex_line != 0 && !done.has_guard) {
          ctx.report(kMutexGuard, done.mutex_line,
                     "class has a mutex member but no AEEP_GUARDED_BY "
                     "sibling; the thread-safety analysis cannot protect "
                     "anything");
        }
      }
      continue;
    }
    // A declarator's '(' or a terminating ';' means the class/struct
    // keyword introduced a declaration, not a definition about to open.
    if (pending_class && (is_punct(t, ";") || is_punct(t, "(")))
      pending_class = false;
    if (t.kind != TokenKind::kIdentifier) continue;

    if ((t.text == "class" || t.text == "struct") &&
        !(i > 0 && is_ident(code[i - 1], "enum")))
      pending_class = true;

    if (stack.empty()) continue;
    // std::mutex (and cousins) member.
    if (is_mutex_type(t.text) && i >= 2 && is_punct(code[i - 1], "::") &&
        is_ident(code[i - 2], "std") && i + 1 < code.size() &&
        code[i + 1].kind == TokenKind::kIdentifier &&
        stack.back().mutex_line == 0)
      stack.back().mutex_line = t.line;
    // aeep::Mutex member (the annotated wrapper).
    if (t.text == "Mutex" && i + 1 < code.size() &&
        code[i + 1].kind == TokenKind::kIdentifier &&
        stack.back().mutex_line == 0)
      stack.back().mutex_line = t.line;
    if (t.text == "AEEP_GUARDED_BY" || t.text == "AEEP_PT_GUARDED_BY")
      stack.back().has_guard = true;
  }
}

// --- rule: thread-detach ---------------------------------------------------
// A detached thread outlives all shutdown paths: nothing joins it, TSan
// cannot see its end, and the process exits under it. Keep the handle.
void check_thread_detach(FileContext& ctx) {
  const auto& code = ctx.code;
  for (std::size_t i = 0; i + 2 < code.size(); ++i) {
    if ((is_punct(code[i], ".") || is_punct(code[i], "->")) &&
        is_ident(code[i + 1], "detach") && is_punct(code[i + 2], "(")) {
      ctx.report(kThreadDetach, code[i + 1].line,
                 ".detach() is banned; keep the handle and join it on "
                 "shutdown");
    }
  }
}

// --- rule: naked-new-delete ------------------------------------------------
// Raw new/delete in src/ bypasses RAII; the codebase's only sanctioned
// manual reuse is free-list code, which must carry an allow-comment.
void check_naked_new(FileContext& ctx) {
  const auto& code = ctx.code;
  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "new" && t.text != "delete") continue;
    if (i > 0 && is_ident(code[i - 1], "operator"))
      continue;  // operator new/delete overload declarations
    if (t.text == "delete" && i > 0 && is_punct(code[i - 1], "="))
      continue;  // `= delete;` deleted functions
    ctx.report(kNakedNew, t.line,
               "naked " + t.text +
                   " in src/ is banned; use std::make_unique / containers "
                   "(free-list code: aeep-lint: allow(naked-new-delete))");
  }
}

// --- rule: sleep-in-src ----------------------------------------------------
// A sleep in library code is either a poll loop that should block on a
// condition variable or a latency bomb on a hot path. Deliberate delays
// (backoff schedules, chaos injection) carry an allow-comment.
void check_sleep(FileContext& ctx) {
  const auto& code = ctx.code;
  for (const Token& t : code) {
    if (is_ident(t, "sleep_for") || is_ident(t, "sleep_until")) {
      ctx.report(kSleep, t.line,
                 t.text +
                     " in src/ is banned; wait on a condition variable "
                     "(deliberate delays: aeep-lint: allow(sleep-in-src))");
    }
  }
}

// --- rule: deque-in-hot-path -----------------------------------------------
// std::deque / std::queue under src/sim, src/server and src/cpu: per-entry
// state (the core's RUU and fetch queue included) belongs in dense fixed
// rings or indexed tables; a node-based queue there brings back
// pointer-chasing scans.
void check_hot_queue(FileContext& ctx) {
  const auto& code = ctx.code;
  for (std::size_t i = 0; i + 3 < code.size(); ++i) {
    if (!(is_ident(code[i], "std") && is_punct(code[i + 1], "::") &&
          (is_ident(code[i + 2], "deque") || is_ident(code[i + 2], "queue")) &&
          is_punct(code[i + 3], "<")))
      continue;
    ctx.report(kHotQueue, code[i + 2].line,
               "std::" + code[i + 2].text +
                   " in src/sim|src/server|src/cpu is banned; use a dense "
                   "SoA ring or an indexed table (deliberate: aeep-lint: "
                   "allow(deque-in-hot-path))");
  }
}

// --- rule: raw-clock -------------------------------------------------------
// Ad-hoc std::chrono::steady_clock::now() timing in src/ outside
// src/metrics: every latency measurement flows through metrics::now() /
// us_between / ScopedTimer so the reading lands in a Histogram the fleet
// can see, not in one call site's hand-rolled duration_cast. (The metrics
// clock wrapper itself is the one sanctioned user.)
void check_raw_clock(FileContext& ctx) {
  const auto& code = ctx.code;
  for (const Token& t : code) {
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text != "steady_clock" && t.text != "high_resolution_clock")
      continue;
    ctx.report(kRawClock, t.line,
               "raw std::chrono::" + t.text +
                   " in src/ is banned; time through metrics::now() / "
                   "metrics::ScopedTimer so the measurement lands in a "
                   "Histogram");
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {kRawRand,
       "no rand()/srand(); all randomness flows from seeded Xorshift64Star"},
      {kOptionalValue,
       "no unchecked ).value() on optionals (stats Counter/Gauge exempt)"},
      {kStatsReset,
       "src/ headers declaring struct ...Stats must declare a reset path"},
      {kEccAlloc,
       "no std::vector-returning encode()/decode() under src/ecc/"},
      {kRawFileIo,
       "no raw fread()/fwrite() outside src/trace/io (tests exempt)"},
      {kRawFsCall,
       "no direct fopen/rename/remove outside src/store + src/trace "
       "(tests exempt)"},
      {kRawSocket,
       "no raw socket()/send()/recv() outside src/server/socket.*"},
      {kMutexGuard,
       "src/ classes with a mutex member need an AEEP_GUARDED_BY sibling"},
      {kThreadDetach, "no std::thread::detach(); join on shutdown"},
      {kNakedNew, "no naked new/delete in src/ outside free-list code"},
      {kSleep, "no sleep_for/sleep_until in src/; wait on a condvar"},
      {kHotQueue,
       "no std::deque/std::queue under src/sim|src/server|src/cpu; use a "
       "dense SoA ring or an indexed table"},
      {kRawClock,
       "no std::chrono::steady_clock outside src/metrics; time through "
       "metrics::now()/ScopedTimer"},
  };
  return catalog;
}

std::vector<Finding> lint_file(const std::string& path,
                               const std::string& source) {
  const std::vector<Token> tokens = lex(source);
  const AllowSet allows(tokens);
  std::vector<Token> code;
  code.reserve(tokens.size());
  for (const Token& t : tokens)
    if (t.kind != TokenKind::kComment) code.push_back(t);

  std::vector<Finding> findings;
  FileContext ctx{path, code, allows, findings};

  const bool in_src = starts_with(path, "src/");
  const bool in_tests = starts_with(path, "tests/");

  check_raw_rand(ctx);
  check_optional_value(ctx);
  if (in_src && ends_with(path, ".hpp")) check_stats_reset(ctx);
  if (starts_with(path, "src/ecc/")) check_ecc_alloc(ctx);
  if (!in_tests && !starts_with(path, "src/trace/io."))
    check_raw_file_io(ctx);
  if (!in_tests && !starts_with(path, "src/store/") &&
      !starts_with(path, "src/trace/"))
    check_raw_fs_call(ctx);
  if (!starts_with(path, "src/server/socket.")) check_raw_socket(ctx);
  if (in_src && path != "src/common/mutex.hpp") check_mutex_guard(ctx);
  check_thread_detach(ctx);
  if (in_src) check_naked_new(ctx);
  if (in_src) check_sleep(ctx);
  if (starts_with(path, "src/sim/") || starts_with(path, "src/server/") ||
      starts_with(path, "src/cpu/"))
    check_hot_queue(ctx);
  if (in_src && !starts_with(path, "src/metrics/")) check_raw_clock(ctx);

  return findings;
}

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace aeep::analysis
