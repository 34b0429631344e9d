// nomc-lint driver: runs the rule catalog over files, applies inline
// suppressions and the checked-in baseline, renders clang-style
// diagnostics, and orchestrates the whole-program passes (include-graph
// architecture rules, stale-suppression and stale-baseline detection)
// over one serial scan.
//
// Suppression syntax, inside any comment — the tag is `nomc-lint:`
// followed by one or more directives:
//
//   allow(rule-id)            suppress on this line and the next
//   allow(rule-a, rule-b)     several rules at once
//   allow-file(rule-id)       suppress for the whole file
//
// A suppression placed on its own line covers the following line, so it can
// sit above the code it justifies. Campaign specs use the same syntax after
// a '#'. Every directive must stay *live*: one whose rule id is not in the
// catalog, or whose covered lines produce no finding of that rule, is
// itself reported as lint-stale-suppress (directives naming the stale-
// tracking rules are exempt, so meta-suppressions do not recurse).
//
// Baseline: a text file of `path|rule-id|trimmed source line` entries.
// Findings matching a baseline entry (same file, rule, and line *content* —
// line numbers may drift) are reported as baselined and do not fail the
// run. `nomc-lint --write-baseline` regenerates it; entries should carry a
// justification comment above them (lines starting with '#'). An entry that
// matches no finding is reported as lint-stale-baseline unless the comment
// line directly above it carries `nomc-lint: allow(lint-stale-baseline)`.
//
// nomc-lint: allow-file(lint-stale-suppress) — the syntax examples above
// are documentation, not suppressions; without this they would register as
// stale directives for made-up rule ids.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/graph.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"

namespace nomc::lint {

struct Finding {
  Diagnostic diagnostic;
  std::string line_text;   ///< trimmed source line (baseline key material)
  bool suppressed = false; ///< matched an inline allow()
  bool baselined = false;  ///< matched a baseline entry
};

/// One allow()/allow-file() directive found in a file's comments.
struct SuppressionSite {
  int line = 1;             ///< line of the comment carrying the directive
  int col = 1;
  int cover_begin = 1;      ///< first line a line-directive covers
  int cover_end = 1;        ///< last line it covers (comment end + 1)
  std::string rule;
  std::string line_text;    ///< trimmed source line (baseline key material)
  bool whole_file = false;
  bool used = false;        ///< suppressed at least one finding
};

/// Everything the whole-program stage needs from one scanned file.
struct FileLint {
  std::vector<Finding> findings;        ///< per-file rules, suppressions applied
  std::vector<SuppressionSite> sites;   ///< directives, usage tracked
  std::vector<IncludeEdge> edges;       ///< module-crossing #includes
  std::string module;                   ///< module_of(path, root)
};

/// Lint one already-scanned C++ file: run rules, then mark suppressions.
[[nodiscard]] std::vector<Finding> lint_cpp_source(const SourceFile& file);

/// Lint a .campaign file's text the same way (rules + '#' suppressions).
[[nodiscard]] std::vector<Finding> lint_campaign_text(const std::string& path,
                                                      const std::string& content);

/// Lint any supported file from disk; dispatches on extension. Unsupported
/// extensions produce no findings. Returns false on read errors.
bool lint_path(const std::string& path, std::vector<Finding>& out, std::string& error);

/// The full per-file stage: findings plus the suppression sites and include
/// edges the whole-program passes consume. `root` is stripped from `path`
/// when computing the module (empty for repo-root-relative scans).
bool lint_file(const std::string& path, const std::string& root, FileLint& out,
               std::string& error);

/// Recursively collect lintable files (.cpp/.cc/.hpp/.h/.hh/.campaign)
/// under `root` (or `root` itself when it is a file), sorted so output and
/// baselines are stable. Directories ending in `tests/lint/fixtures` are
/// skipped — fixture sources are deliberate rule violations, data rather
/// than code — unless `root` itself points inside one.
bool collect_files(const std::string& root, std::vector<std::string>& out, std::string& error);

// ---- Baseline ------------------------------------------------------------

class Baseline {
 public:
  /// Load entries from `path`. A missing file is not an error (empty
  /// baseline); a malformed line is.
  bool load(const std::string& path, std::string& error);

  /// Mark findings that match an entry as baselined. Each entry absorbs at
  /// most one finding (multiset semantics), so a *new* duplicate of a
  /// baselined pattern still fails the run.
  void apply(std::vector<Finding>& findings);

  /// lint-stale-baseline findings for entries apply() did not match. An
  /// entry whose preceding comment line carries
  /// `nomc-lint: allow(lint-stale-baseline)` comes back pre-suppressed.
  /// Call after apply().
  [[nodiscard]] std::vector<Finding> stale_findings() const;

  /// Serialize the unsuppressed findings as baseline entries.
  [[nodiscard]] static std::string serialize(const std::vector<Finding>& findings);

  [[nodiscard]] static std::string key(const Finding& finding);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string key;
    int line = 1;             ///< line in the baseline file
    bool allow_stale = false; ///< justified leftover; never reported stale
    bool matched = false;
  };
  std::string path_;
  std::vector<Entry> entries_;
};

// ---- Whole-program driver ------------------------------------------------

struct RunOptions {
  std::vector<std::string> roots;  ///< files or directories to scan
  std::string root_prefix;         ///< stripped before module mapping ("" = repo-relative)
  std::string layers_path;         ///< layering spec; empty skips the arch pass
  std::string baseline_path;       ///< baseline file; empty skips the baseline pass
};

struct RunResult {
  std::size_t file_count = 0;
  std::vector<Finding> findings;  ///< globally sorted: (path, line, col, rule)
};

/// Scan + per-file rules in collection order, then the whole-program
/// passes: architecture rules against the layering spec,
/// lint-stale-suppress, baseline matching, lint-stale-baseline.
bool run_lint(const RunOptions& options, RunResult& result, std::string& error);

/// `file:line:col: warning: message [rule-id]`
[[nodiscard]] std::string format_diagnostic(const Finding& finding);

}  // namespace nomc::lint
