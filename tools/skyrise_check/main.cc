#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "checker.h"
#include "sarif.h"
#include "state_audit.h"

/// CLI for the skyrise static-analysis pass.
///
///   skyrise_check [--root DIR] [--quiet] [--sarif FILE]
///                 [--state-inventory FILE] [--list-rules] [--help] [dirs...]
///
/// With no dirs, lints the default trees: src, examples, bench, tests,
/// tools (the checker lints its own sources). `--sarif` also writes the
/// findings as SARIF 2.1.0 for GitHub code-scanning upload;
/// `--state-inventory` writes the shared-mutable-state audit of src/ as JSON
/// (see state_audit.h) and exits 0; `--list-rules` prints every rule id and
/// exits 0. Exits 0 when clean, 1 on violations, 2 on usage/IO errors.

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: skyrise_check [--root DIR] [--quiet] [--sarif FILE]\n"
      "                     [--state-inventory FILE] [--list-rules] "
      "[dirs...]\n"
      "Lints .h/.hpp/.cc/.cpp files for skyrise determinism and "
      "error-handling invariants.\n"
      "  --root DIR        repository root (default .)\n"
      "  --quiet           print only the findings, no status on stderr\n"
      "  --sarif FILE      also write findings as SARIF 2.1.0 for\n"
      "                    code-scanning upload\n"
      "  --state-inventory FILE\n"
      "                    write the src/ static-state audit as JSON and "
      "exit\n"
      "  --list-rules      print every rule id and exit\n"
      "  -h, --help        print this help and exit\n"
      "Default dirs: src examples bench tests tools\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string sarif_path;
  std::string inventory_path;
  std::vector<std::string> dirs;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" || arg == "--sarif" || arg == "--state-inventory") {
      if (i + 1 >= argc) {
        PrintUsage();
        return 2;
      }
      const std::string value = argv[++i];
      if (arg == "--root") {
        root = value;
      } else if (arg == "--sarif") {
        sarif_path = value;
      } else {
        inventory_path = value;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-rules") {
      for (const std::string& rule : skyrise::check::Checker::RuleIds()) {
        std::printf("%s\n", rule.c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.empty()) dirs = {"src", "examples", "bench", "tests", "tools"};

  if (!inventory_path.empty()) {
    std::ofstream out(inventory_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "skyrise_check: cannot write %s\n",
                   inventory_path.c_str());
      return 2;
    }
    out << skyrise::check::RenderStateInventoryForTree(root);
    if (!quiet) {
      std::fprintf(stderr, "skyrise_check: wrote state inventory to %s\n",
                   inventory_path.c_str());
    }
    return 0;
  }

  const std::vector<skyrise::check::Diagnostic> diags =
      skyrise::check::CheckTree(root, dirs);

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "skyrise_check: cannot write %s\n",
                   sarif_path.c_str());
      return 2;
    }
    out << skyrise::check::RenderSarif(diags);
    if (!quiet) {
      std::fprintf(stderr, "skyrise_check: wrote SARIF to %s\n",
                   sarif_path.c_str());
    }
  }

  for (const auto& d : diags) {
    std::printf("%s\n", skyrise::check::FormatDiagnostic(d).c_str());
  }
  if (!quiet) {
    std::fprintf(stderr, "skyrise_check: %zu violation(s)\n", diags.size());
  }
  return diags.empty() ? 0 : 1;
}
