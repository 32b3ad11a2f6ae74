// gvm-lint driver.
//
// Tree mode (the default):
//   gvm_lint --root <repo> [--compdb <build/compile_commands.json>] [dirs...]
// walks src/ tests/ bench/ (or the given dirs), lowers every header and TU
// into the analysis model and evaluates the five invariants (rules.cc).
// Translation units are taken from the compilation database when one is
// given — headers are discovered by the walk since no compdb lists them.
//
// Selftest mode:
//   gvm_lint --root <repo> --selftest <tools/lint/testdata>
// analyzes each fixture TU in isolation and requires its diagnostics to match
// the `// EXPECT: rule-id` markers exactly: every marker fires, nothing else
// does, and clean fixtures stay silent.
//
// Exit codes: 0 clean / selftest pass, 1 diagnostics / mismatch, 2 usage or
// I/O error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/model.h"
#include "tools/lint/rules.h"

namespace fs = std::filesystem;
using gvmlint::AnalysisStats;
using gvmlint::Diagnostic;
using gvmlint::FileModel;
using gvmlint::Project;

namespace {

bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

// Repo-relative with forward slashes, for stable diagnostics.
std::string RelPath(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string s = (ec ? p : rel).generic_string();
  while (s.rfind("./", 0) == 0) s = s.substr(2);
  return s;
}

// Minimal scrape of compile_commands.json: the "file" values.  The analyzer
// needs no flags, only the TU list, so a full JSON parser would be
// dead weight.
std::vector<std::string> CompdbFiles(const std::string& json) {
  std::vector<std::string> out;
  size_t at = 0;
  while ((at = json.find("\"file\"", at)) != std::string::npos) {
    size_t colon = json.find(':', at + 6);
    if (colon == std::string::npos) break;
    size_t open = json.find('"', colon + 1);
    if (open == std::string::npos) break;
    size_t close = open + 1;
    while (close < json.size() && json[close] != '"') {
      if (json[close] == '\\') ++close;
      ++close;
    }
    if (close >= json.size()) break;
    out.push_back(json.substr(open + 1, close - open - 1));
    at = close + 1;
  }
  return out;
}

bool LoadRankTable(const fs::path& root, Project* project) {
  std::string contents;
  if (!ReadFile(root / "src/sync/lock_rank.h", &contents)) return false;
  gvmlint::ParseRankTable(contents, project);
  return true;
}

int RunTree(const fs::path& root, const std::string& compdb_path,
            const std::vector<std::string>& dirs, bool verbose) {
  Project project;
  if (!LoadRankTable(root, &project)) {
    std::fprintf(stderr,
                 "gvm-lint: warning: cannot read src/sync/lock_rank.h under "
                 "--root; lock-rank checks degraded\n");
  }

  auto in_scanned_dirs = [&](const std::string& rel) {
    for (const std::string& d : dirs) {
      if (rel.rfind(d + "/", 0) == 0) return true;
    }
    return false;
  };

  std::set<std::string> rel_paths;
  for (const std::string& d : dirs) {
    fs::path dir = root / d;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (it->is_regular_file(ec) && IsSourceFile(it->path())) {
        rel_paths.insert(RelPath(root, it->path()));
      }
    }
  }
  if (!compdb_path.empty()) {
    std::string json;
    if (!ReadFile(compdb_path, &json)) {
      std::fprintf(stderr, "gvm-lint: error: cannot read compdb '%s'\n",
                   compdb_path.c_str());
      return 2;
    }
    size_t tus = 0;
    for (const std::string& f : CompdbFiles(json)) {
      std::string rel = RelPath(root, fs::path(f));
      if (in_scanned_dirs(rel) && IsSourceFile(fs::path(rel))) {
        rel_paths.insert(rel);
        ++tus;
      }
    }
    if (verbose) {
      std::fprintf(stderr, "gvm-lint: %zu TUs from %s\n", tus,
                   compdb_path.c_str());
    }
  }
  if (rel_paths.empty()) {
    std::fprintf(stderr, "gvm-lint: error: no sources found under --root %s\n",
                 root.string().c_str());
    return 2;
  }

  for (const std::string& rel : rel_paths) {
    std::string contents;
    if (!ReadFile(root / rel, &contents)) {
      std::fprintf(stderr, "gvm-lint: error: cannot read '%s'\n",
                   rel.c_str());
      return 2;
    }
    gvmlint::ParseFile(rel, rel, contents, &project);
  }

  AnalysisStats stats;
  std::vector<Diagnostic> diags = gvmlint::RunRules(project, &stats);
  for (const Diagnostic& d : diags) {
    std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                d.message.c_str());
  }
  std::fprintf(stderr,
               "gvm-lint: %zu files, %zu functions, %zu classes, %zu "
               "status APIs, %zu guard nestings checked: %zu diagnostic(s)\n",
               stats.files, stats.functions, stats.classes, stats.status_apis,
               stats.guard_nestings, diags.size());
  return diags.empty() ? 0 : 1;
}

int RunSelftest(const fs::path& root, const fs::path& testdata) {
  std::vector<fs::path> fixtures;
  std::error_code ec;
  for (auto it = fs::directory_iterator(testdata, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file() && IsSourceFile(it->path())) {
      fixtures.push_back(it->path());
    }
  }
  std::sort(fixtures.begin(), fixtures.end());
  if (fixtures.empty()) {
    std::fprintf(stderr, "gvm-lint: error: no fixtures under '%s'\n",
                 testdata.string().c_str());
    return 2;
  }

  int failures = 0;
  size_t expected_total = 0;
  for (const fs::path& fixture : fixtures) {
    std::string contents;
    if (!ReadFile(fixture, &contents)) {
      std::fprintf(stderr, "gvm-lint: error: cannot read '%s'\n",
                   fixture.string().c_str());
      return 2;
    }
    Project project;
    LoadRankTable(root, &project);
    std::string display = fixture.filename().string();
    gvmlint::ParseFile(display, display, contents, &project);

    // Expected (line, rule) pairs from the EXPECT markers.
    std::set<std::pair<int, std::string>> expected;
    const FileModel& fm = *project.files.back();
    for (const auto& [line, notes] : fm.notes) {
      for (const std::string& rule : notes.expects) {
        expected.insert({line, rule});
      }
    }
    expected_total += expected.size();

    std::set<std::pair<int, std::string>> got;
    for (const Diagnostic& d : gvmlint::RunRules(project, nullptr)) {
      got.insert({d.line, d.rule});
    }

    bool ok = true;
    for (const auto& [line, rule] : expected) {
      if (got.count({line, rule}) == 0) {
        std::printf("FAIL %s:%d: expected [%s] did not fire\n",
                    display.c_str(), line, rule.c_str());
        ok = false;
      }
    }
    for (const auto& [line, rule] : got) {
      if (expected.count({line, rule}) == 0) {
        std::printf("FAIL %s:%d: unexpected [%s]\n", display.c_str(), line,
                    rule.c_str());
        ok = false;
      }
    }
    if (ok) {
      std::printf("PASS %s (%zu expected diagnostic(s))\n", display.c_str(),
                  expected.size());
    } else {
      ++failures;
    }
  }
  std::printf("gvm-lint selftest: %zu fixture(s), %zu expected diagnostic(s), "
              "%d failure(s)\n",
              fixtures.size(), expected_total, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string compdb;
  std::string selftest;
  bool verbose = false;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "gvm-lint: --root needs a value\n");
        return 2;
      }
      root = v;
    } else if (arg == "--compdb") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "gvm-lint: --compdb needs a value\n");
        return 2;
      }
      compdb = v;
    } else if (arg == "--selftest") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "gvm-lint: --selftest needs a value\n");
        return 2;
      }
      selftest = v;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: gvm_lint --root <repo> [--compdb <json>] [dirs...]\n"
          "       gvm_lint --root <repo> --selftest <testdata-dir>\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "gvm-lint: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (!selftest.empty()) return RunSelftest(root, selftest);
  if (dirs.empty()) dirs = {"src", "tests", "bench"};
  return RunTree(root, compdb, dirs, verbose);
}
