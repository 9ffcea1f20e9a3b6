// Minimal --key=value command-line parsing for benches, examples and tools.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace aeep {

/// Parses `--key=value` and bare `--flag` arguments. Unrecognised positional
/// arguments are retained in positionals().
class CliArgs {
 public:
  /// Throws std::invalid_argument when the same --flag appears twice: a
  /// duplicated flag is almost always a copy-paste error, and silently
  /// taking the last value hides it (a sweep launched with
  /// `--seed=1 ... --seed=7` would quietly ignore the first seed).
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def) const;
  /// Numeric getters: a value that is not a number (or, for get_u64, one
  /// that is negative, has a suffix other than K/M/G, or overflows) prints
  /// the flag to stderr and exits 2.
  u64 get_u64(const std::string& key, u64 def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;
  /// Comma-separated --key=a,b,c (empty items dropped).
  std::vector<std::string> get_list(const std::string& key,
                                    const std::string& def) const;

  const std::vector<std::string>& positionals() const { return positionals_; }
  /// Keys that were supplied but never queried; benches use this to reject
  /// typos in flag names.
  std::vector<std::string> unused() const;
  /// Keys the program has queried so far — i.e. the flags it accepts.
  /// reject_unknown_flags() prints these so a typo's error message shows
  /// what would have been valid.
  std::vector<std::string> queried() const;

 private:
  std::map<std::string, std::string> kv_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positionals_;
};

/// CliArgs for a main(): constructor errors (duplicate flags) print to
/// stderr and exit(2) instead of escaping as an unhandled exception. Also
/// registers close_stdout() to run at exit.
CliArgs parse_cli_or_exit(int argc, const char* const* argv);

/// gnulib's close_stdout, for std::atexit: flush and close stdout, and if
/// that or any earlier write to it failed (a full disk, /dev/full), print
/// the error to stderr and _exit(1). Output is buffered, so a lost answer
/// shows only here; without it the program would still exit 0.
void close_stdout();

/// --instructions, `def` when absent. A run that commits nothing measures
/// nothing (every IPC and per-access rate divides by zero), so 0 exits 2;
/// --warmup=0 is a cold start and stays valid.
u64 parse_instructions(const CliArgs& args, u64 def);

/// Call once every flag has been read: any supplied flag the program never
/// queried (a typo such as --due-polcy) prints with the accepted flags to
/// stderr and exits 2, instead of silently running the defaults.
void reject_unknown_flags(const CliArgs& args);

/// The value `--key` selects among `choices` ({spelling, value} pairs);
/// `def` is the spelling used when the flag is absent. An unknown spelling
/// exits 2 naming the accepted ones.
template <typename T>
T get_choice(const CliArgs& args, const std::string& key,
             const std::string& def,
             std::initializer_list<std::pair<const char*, T>> choices) {
  const std::string s = args.get(key, def);
  std::string accepted;
  for (const auto& [spelling, value] : choices) {
    if (s == spelling) return value;
    if (!accepted.empty()) accepted += '|';
    accepted += spelling;
  }
  std::fprintf(stderr, "unknown --%s=%s (%s)\n", key.c_str(), s.c_str(),
               accepted.c_str());
  std::exit(2);
}

}  // namespace aeep
