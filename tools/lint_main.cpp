// aeep_lint — the repo's token-aware lint gate (replaces the grep rules
// that used to live in tools/lint.sh; the script is now a thin wrapper
// that builds and runs this binary).
//
//   aeep_lint [--root=DIR]     lint src/ tools/ tests/ bench/ examples/
//   aeep_lint --list-rules     print the rule catalog
//   aeep_lint FILE...          lint specific files (paths used for scoping)
//
// Exit code: 0 = clean, 1 = findings, 2 = usage/IO trouble — the same
// contract the grep script had, so CI and local habits keep working. A
// report that cannot be written to stdout exits 1 (common/cli's
// close_stdout).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/rules.hpp"
#include "common/cli.hpp"

namespace fs = std::filesystem;
using aeep::analysis::Finding;
using aeep::analysis::format_finding;
using aeep::analysis::lint_file;
using aeep::analysis::rule_catalog;

namespace {

/// The directories the grep rules covered, and that aeep_lint walks.
const char* kRoots[] = {"src", "tools", "tests", "bench", "examples"};

bool has_cxx_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int lint_paths(const std::vector<std::pair<std::string, fs::path>>& files) {
  std::size_t bad_files = 0;
  std::vector<Finding> all;
  for (const auto& [rel, abs] : files) {
    std::string source;
    if (!read_file(abs, source)) {
      std::fprintf(stderr, "aeep_lint: cannot read %s\n",
                   abs.string().c_str());
      return 2;
    }
    const std::vector<Finding> findings = lint_file(rel, source);
    if (!findings.empty()) ++bad_files;
    for (const Finding& f : findings)
      std::printf("%s\n", format_finding(f).c_str());
    all.insert(all.end(), findings.begin(), findings.end());
  }
  if (all.empty()) {
    std::printf("aeep_lint: all rules pass (%zu files)\n", files.size());
    return 0;
  }
  std::printf("aeep_lint: %zu finding(s) in %zu file(s)\n", all.size(),
              bad_files);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::atexit(aeep::close_stdout);  // flags are parsed here, not by CliArgs
  std::string root = ".";
  std::vector<std::string> explicit_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const auto& rule : rule_catalog())
        std::printf("%-26s %s\n", rule.name.c_str(),
                    rule.description.c_str());
      return 0;
    }
    if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: aeep_lint [--root=DIR] [--list-rules] [FILE...]\n");
      return 0;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "aeep_lint: unknown flag %s\n", arg.c_str());
      return 2;
    }
    explicit_files.push_back(arg);
  }

  std::vector<std::pair<std::string, fs::path>> files;  // rel, absolute
  if (!explicit_files.empty()) {
    files.reserve(explicit_files.size());
    for (const std::string& f : explicit_files)
      files.emplace_back(fs::path(f).generic_string(), fs::path(f));
  } else {
    const fs::path base(root);
    for (const char* dir : kRoots) {
      const fs::path top = base / dir;
      std::error_code ec;
      if (!fs::is_directory(top, ec)) continue;
      for (auto it = fs::recursive_directory_iterator(top, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file() || !has_cxx_extension(it->path()))
          continue;
        files.emplace_back(
            fs::relative(it->path(), base).generic_string(), it->path());
      }
    }
    if (files.empty()) {
      std::fprintf(stderr,
                   "aeep_lint: no sources under %s (wrong --root?)\n",
                   root.c_str());
      return 2;
    }
  }

  std::sort(files.begin(), files.end());
  return lint_paths(files);
}
