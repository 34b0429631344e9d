// nomc-lint — repo-specific determinism, unit-safety, hygiene, and
// architecture linter.
//
// Walks C++ sources (and campaign specs) and enforces the invariants the
// test suite cannot see from the outside: no stray RNG, no hash-order
// output, no log/linear power mixing, no naked CCA literals. On top of the
// per-file rules, whole-program passes check the module include graph
// against the layering spec (tools/nomc_layers.txt) and flag stale
// suppressions and stale baseline entries. Diagnostics are clang-style
// (`file:line:col: warning: ... [rule-id]`); findings are suppressible
// inline or via the checked-in baseline. Exit status: 0 clean, 1 new
// findings, 2 usage or I/O error — so CI can require it. See
// docs/static_analysis.md.
//
//   nomc-lint                      lint src/ tools/ bench/ tests/
//   nomc-lint src/phy              lint one tree
//   nomc-lint --list-rules         print the rule catalog
//   nomc-lint --write-baseline     re-admit all current findings
#include <cstdio>
#include <string>
#include <vector>

#include "lint/driver.hpp"

namespace {

using namespace nomc;

constexpr const char* kDefaultBaseline = "tools/nomc_lint.baseline";
constexpr const char* kDefaultLayers = "tools/nomc_layers.txt";

int usage(std::FILE* out) {
  std::fputs(
      "usage: nomc-lint [options] [path...]\n"
      "\n"
      "Lints C++ sources (.cpp/.cc/.hpp/.h/.hh) and campaign specs for\n"
      "repo-specific determinism, unit-safety, hygiene, and architecture\n"
      "invariants. Default paths: src tools bench tests (run from the repo\n"
      "root; tests/lint/fixtures is skipped — fixtures are deliberate\n"
      "violations).\n"
      "\n"
      "options:\n"
      "  --layers <file>     module layering spec for the architecture pass\n"
      "                      (default: tools/nomc_layers.txt; the pass is\n"
      "                      skipped when the default is absent)\n"
      "  --no-layers         skip the architecture pass\n"
      "  --baseline <file>   baseline of grandfathered findings\n"
      "                      (default: tools/nomc_lint.baseline)\n"
      "  --no-baseline       ignore the baseline; report everything\n"
      "  --write-baseline    rewrite the baseline from current findings\n"
      "  --list-rules        print the rule catalog\n"
      "  --verbose           also print suppressed and baselined findings\n"
      "  --help              this text\n",
      out);
  return out == stdout ? 0 : 2;
}

[[nodiscard]] bool file_exists(const char* path) {
  std::FILE* file = std::fopen(path, "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path = kDefaultBaseline;
  std::string layers_path = kDefaultLayers;
  bool layers_explicit = false;
  bool use_layers = true;
  bool use_baseline = true;
  bool write_baseline = false;
  bool verbose = false;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") return usage(stdout);
    if (arg == "--list-rules") {
      for (const lint::RuleInfo& rule : lint::rule_catalog()) {
        std::printf("%-24s %s\n", rule.id, rule.summary);
      }
      return 0;
    }
    if (arg == "--layers") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "nomc-lint: --layers needs a path\n");
        return 2;
      }
      layers_path = argv[++i];
      layers_explicit = true;
      continue;
    }
    if (arg == "--no-layers") {
      use_layers = false;
      continue;
    }
    if (arg == "--baseline") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "nomc-lint: --baseline needs a path\n");
        return 2;
      }
      baseline_path = argv[++i];
      continue;
    }
    if (arg == "--no-baseline") {
      use_baseline = false;
      continue;
    }
    if (arg == "--write-baseline") {
      write_baseline = true;
      continue;
    }
    if (arg == "--verbose") {
      verbose = true;
      continue;
    }
    if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      std::fprintf(stderr, "nomc-lint: unknown option '%s'\n", arg.c_str());
      return usage(stderr);
    }
    roots.push_back(arg);
  }

  lint::RunOptions options;
  options.roots = roots.empty() ? std::vector<std::string>{"src", "tools", "bench", "tests"}
                                : roots;
  if (use_layers && (layers_explicit || file_exists(layers_path.c_str()))) {
    // The default spec may legitimately be absent (a partial checkout, a
    // fixture tree); an explicitly requested one may not.
    options.layers_path = layers_path;
  }
  if (use_baseline && !write_baseline) options.baseline_path = baseline_path;

  lint::RunResult result;
  std::string error;
  if (!lint::run_lint(options, result, error)) {
    std::fprintf(stderr, "nomc-lint: %s\n", error.c_str());
    return 2;
  }

  if (write_baseline) {
    const std::string serialized = lint::Baseline::serialize(result.findings);
    std::FILE* out = std::fopen(baseline_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "nomc-lint: cannot write %s\n", baseline_path.c_str());
      return 2;
    }
    std::fwrite(serialized.data(), 1, serialized.size(), out);
    std::fclose(out);
    std::size_t entries = 0;
    for (const lint::Finding& finding : result.findings) {
      if (!finding.suppressed) ++entries;
    }
    std::printf("nomc-lint: wrote %zu baseline entr%s to %s\n", entries,
                entries == 1 ? "y" : "ies", baseline_path.c_str());
    return 0;
  }

  std::size_t fresh = 0;
  std::size_t suppressed = 0;
  std::size_t baselined = 0;
  for (const lint::Finding& finding : result.findings) {
    if (finding.suppressed) {
      ++suppressed;
      if (verbose) {
        std::printf("%s (suppressed)\n", lint::format_diagnostic(finding).c_str());
      }
      continue;
    }
    if (finding.baselined) {
      ++baselined;
      if (verbose) {
        std::printf("%s (baselined)\n", lint::format_diagnostic(finding).c_str());
      }
      continue;
    }
    ++fresh;
    std::printf("%s\n", lint::format_diagnostic(finding).c_str());
  }

  std::printf("nomc-lint: %zu file%s, %zu new finding%s (%zu suppressed, %zu baselined)\n",
              result.file_count, result.file_count == 1 ? "" : "s", fresh, fresh == 1 ? "" : "s",
              suppressed, baselined);
  return fresh == 0 ? 0 : 1;
}
