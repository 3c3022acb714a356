// piye_lint: structural checker for PRIVATE-IYE-specific invariants.
//
//   piye_lint [--json] [--list-rules] [path...]
//   piye_lint --closure <repo-root>
//
// Lints every .h/.cc under the given paths (default: src). Exits 0 when
// clean, 1 on findings, 2 on usage or I/O errors. `--json` prints the
// machine-readable report CI archives; the default output is one
// `file:line: [rule] message` per finding. `--closure` instead runs the
// product-closure check (lint.h, CheckProductClosure) over the repo's
// src/, lab/, tools/ and perfbench/ trees.
//
// The rule catalog and suppression syntax are documented in lint.h and
// DESIGN.md §10.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace fs = std::filesystem;

namespace {

bool IsSourceFile(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

int CollectFiles(const std::string& root, std::vector<std::string>& out) {
  std::error_code ec;
  const fs::file_status st = fs::status(root, ec);
  if (ec) {
    std::cerr << "piye_lint: cannot stat '" << root << "': " << ec.message() << "\n";
    return 2;
  }
  if (fs::is_regular_file(st)) {
    out.push_back(root);
    return 0;
  }
  if (!fs::is_directory(st)) {
    std::cerr << "piye_lint: '" << root << "' is neither a file nor a directory\n";
    return 2;
  }
  for (fs::recursive_directory_iterator it(root, ec), end; it != end;
       it.increment(ec)) {
    if (ec) {
      std::cerr << "piye_lint: walking '" << root << "': " << ec.message() << "\n";
      return 2;
    }
    if (it->is_regular_file() && IsSourceFile(it->path())) {
      out.push_back(it->path().generic_string());
    }
  }
  return 0;
}

/// Reads `paths` into `files`, dropping the first `trim` characters of each
/// path (so a repo root's files carry repo-relative paths).
int ReadFiles(const std::vector<std::string>& paths, size_t trim,
              std::vector<piye::lint::FileContent>& files) {
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "piye_lint: cannot read '" << path << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    files.push_back({path.substr(trim), buffer.str()});
  }
  return 0;
}

void PrintFindings(const std::vector<piye::lint::Finding>& findings) {
  for (const auto& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
}

int RunClosure(std::string root) {
  while (root.size() > 1 && root.back() == '/') root.pop_back();
  std::vector<std::string> paths;
  for (const char* tree : {"src", "lab", "tools", "perfbench"}) {
    const fs::path dir = fs::path(root) / tree;
    if (!fs::exists(dir)) continue;
    const int rc = CollectFiles(dir.generic_string(), paths);
    if (rc != 0) return rc;
  }
  std::sort(paths.begin(), paths.end());
  const std::string prefix = fs::path(root).generic_string() + "/";
  std::vector<piye::lint::FileContent> files;
  const int rc = ReadFiles(paths, prefix.size(), files);
  if (rc != 0) return rc;
  const std::vector<piye::lint::Finding> findings = piye::lint::CheckProductClosure(files);
  PrintFindings(findings);
  std::cout << "piye_lint --closure: " << files.size() << " files, " << findings.size()
            << " finding" << (findings.size() == 1 ? "" : "s") << "\n";
  return findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<std::string> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      for (const auto& name : piye::lint::RuleNames()) {
        std::cout << name << ": " << piye::lint::RuleDescription(name) << "\n";
      }
      return 0;
    } else if (arg == "--closure") {
      if (i + 2 != argc) {
        std::cerr << "usage: piye_lint --closure <repo-root>\n";
        return 2;
      }
      return RunClosure(argv[i + 1]);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: piye_lint [--json] [--list-rules] [path...]\n"
                   "       piye_lint --closure <repo-root>\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "piye_lint: unknown flag '" << arg << "'\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) roots.push_back("src");

  std::vector<std::string> paths;
  for (const auto& root : roots) {
    const int rc = CollectFiles(root, paths);
    if (rc != 0) return rc;
  }
  std::sort(paths.begin(), paths.end());

  std::vector<piye::lint::FileContent> files;
  files.reserve(paths.size());
  const int rc = ReadFiles(paths, 0, files);
  if (rc != 0) return rc;

  const std::vector<piye::lint::Finding> findings = piye::lint::RunLint(files);
  if (json) {
    std::cout << piye::lint::FindingsToJson(findings) << "\n";
  } else {
    PrintFindings(findings);
    std::cout << "piye_lint: " << files.size() << " files, " << findings.size()
              << " finding" << (findings.size() == 1 ? "" : "s") << "\n";
  }
  return findings.empty() ? 0 : 1;
}
