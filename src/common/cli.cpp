#include "common/cli.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace aeep {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      std::string key, value;
      if (eq == std::string::npos) {
        key = arg.substr(2);
        value = "true";
      } else {
        key = arg.substr(2, eq - 2);
        value = arg.substr(eq + 1);
      }
      if (!kv_.emplace(key, std::move(value)).second)
        throw std::invalid_argument("duplicate flag --" + key +
                                    " (each flag may be given once)");
    } else {
      positionals_.push_back(std::move(arg));
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  queried_[key] = true;
  return kv_.count(key) != 0;
}

std::string CliArgs::get(const std::string& key, const std::string& def) const {
  queried_[key] = true;
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

namespace {

/// A flag value that does not parse exits 2 naming the flag, like an
/// unknown spelling (get_choice): a typo must not run as some number.
[[noreturn]] void exit_bad_value(const char* what, const std::string& key,
                                 const std::string& value) {
  std::fprintf(stderr, "%s in --%s=%s\n", what, key.c_str(), value.c_str());
  std::exit(2);
}

}  // namespace

u64 CliArgs::get_u64(const std::string& key, u64 def) const {
  queried_[key] = true;
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  // Digits, then optionally one binary suffix K/M/G: --interval=1M.
  const std::string& s = it->second;
  if (s.empty() || s[0] < '0' || s[0] > '9')  // stoull would take "-1"
    exit_bad_value("bad number", key, s);
  std::size_t pos = 0;
  u64 v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::out_of_range&) {
    exit_bad_value("bad number", key, s);
  }
  if (pos == s.size()) return v;
  unsigned shift = 0;
  switch (s[pos]) {
    case 'k': case 'K': shift = 10; break;
    case 'm': case 'M': shift = 20; break;
    case 'g': case 'G': shift = 30; break;
    default: exit_bad_value("bad numeric suffix", key, s);
  }
  if (pos + 1 != s.size()) exit_bad_value("bad numeric suffix", key, s);
  if (v > (~u64{0} >> shift)) exit_bad_value("bad number", key, s);
  return v << shift;
}

double CliArgs::get_double(const std::string& key, double def) const {
  queried_[key] = true;
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  const std::string& s = it->second;
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::logic_error&) {  // not a number, or out of range
    exit_bad_value("bad number", key, s);
  }
  if (pos != s.size()) exit_bad_value("bad number", key, s);
  return v;
}

bool CliArgs::get_bool(const std::string& key, bool def) const {
  queried_[key] = true;
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> CliArgs::get_list(const std::string& key,
                                           const std::string& def) const {
  std::vector<std::string> out;
  std::istringstream in(get(key, def));
  for (std::string item; std::getline(in, item, ',');)
    if (!item.empty()) out.push_back(item);
  return out;
}

std::vector<std::string> CliArgs::queried() const {
  std::vector<std::string> out;
  out.reserve(queried_.size());
  for (const auto& [k, seen] : queried_) {
    (void)seen;
    out.push_back(k);
  }
  return out;
}

CliArgs parse_cli_or_exit(int argc, const char* const* argv) {
  [[maybe_unused]] static const int registered = std::atexit(close_stdout);
  try {
    return CliArgs(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

void close_stdout() {
  const bool earlier_failure = std::ferror(stdout) != 0;
  errno = 0;
  if (std::fclose(stdout) == 0 && !earlier_failure) return;
  // errno is 0 when the close succeeded and only an earlier write failed.
  std::fprintf(stderr, "write error%s%s\n", errno != 0 ? ": " : "",
               errno != 0 ? std::strerror(errno) : "");
  _exit(1);
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (!queried_.count(k)) out.push_back(k);
  }
  return out;
}

u64 parse_instructions(const CliArgs& args, u64 def) {
  const u64 n = args.get_u64("instructions", def);
  if (n == 0) {
    std::fprintf(stderr, "--instructions=0 measures nothing (at least 1)\n");
    std::exit(2);
  }
  return n;
}

void reject_unknown_flags(const CliArgs& args) {
  const auto unused = args.unused();
  if (unused.empty()) return;
  std::fprintf(stderr, "unknown flag(s):");
  for (const auto& k : unused) std::fprintf(stderr, " --%s", k.c_str());
  std::fprintf(stderr, "\naccepted flags:");
  for (const auto& k : args.queried()) std::fprintf(stderr, " --%s", k.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace aeep
