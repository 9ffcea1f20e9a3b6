#include "common/cli.hpp"

#include <cstdio>
#include <cstdlib>
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

u64 CliArgs::get_u64(const std::string& key, u64 def) const {
  queried_[key] = true;
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  // Accept suffixes K/M/G (binary) for convenience: --interval=1M.
  const std::string& s = it->second;
  std::size_t pos = 0;
  u64 v = 0;
  try {
    v = std::stoull(s, &pos);
  } catch (const std::logic_error&) {  // not a number, or out of range
    throw std::invalid_argument("bad number in --" + key + "=" + s);
  }
  if (pos < s.size()) {
    switch (s[pos]) {
      case 'k': case 'K': v <<= 10; break;
      case 'm': case 'M': v <<= 20; break;
      case 'g': case 'G': v <<= 30; break;
      default: throw std::invalid_argument("bad numeric suffix in --" + key + "=" + s);
    }
  }
  return v;
}

double CliArgs::get_double(const std::string& key, double def) const {
  queried_[key] = true;
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : std::stod(it->second);
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
  try {
    return CliArgs(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (!queried_.count(k)) out.push_back(k);
  }
  return out;
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
