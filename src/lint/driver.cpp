#include "lint/driver.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <tuple>
#include <utility>

namespace nomc::lint {

namespace {

[[nodiscard]] std::string trim(const std::string& text) {
  const std::size_t first = text.find_first_not_of(" \t\r");
  if (first == std::string::npos) return {};
  const std::size_t last = text.find_last_not_of(" \t\r");
  return text.substr(first, last - first + 1);
}

/// Parse every allow()/allow-file() directive in one comment into sites.
void parse_suppressions(const Comment& comment, std::vector<SuppressionSite>& out) {
  const std::string tag = "nomc-lint:";
  std::size_t pos = comment.text.find(tag);
  if (pos == std::string::npos) return;
  pos += tag.size();
  while (pos < comment.text.size()) {
    const std::size_t allow = comment.text.find("allow", pos);
    if (allow == std::string::npos) break;
    std::size_t cursor = allow + 5;
    const bool whole_file = comment.text.compare(cursor, 5, "-file") == 0;
    if (whole_file) cursor += 5;
    if (cursor >= comment.text.size() || comment.text[cursor] != '(') {
      pos = cursor;
      continue;
    }
    const std::size_t close = comment.text.find(')', cursor);
    if (close == std::string::npos) break;
    std::string ids = comment.text.substr(cursor + 1, close - cursor - 1);
    std::string current;
    auto flush = [&] {
      const std::string id = trim(current);
      current.clear();
      if (id.empty()) return;
      SuppressionSite site;
      site.line = comment.line;
      site.col = comment.col;
      site.cover_begin = comment.line;
      // The comment's own lines plus the line after it (so a standalone
      // suppression comment covers the statement below).
      site.cover_end = comment.end_line + 1;
      site.rule = id;
      site.whole_file = whole_file;
      out.push_back(std::move(site));
    };
    for (const char c : ids) {
      if (c == ',') {
        flush();
      } else {
        current += c;
      }
    }
    flush();
    pos = close + 1;
  }
}

[[nodiscard]] std::vector<SuppressionSite> collect_sites(const SourceFile& file) {
  std::vector<SuppressionSite> sites;
  for (const Comment& comment : file.comments) parse_suppressions(comment, sites);
  for (SuppressionSite& site : sites) site.line_text = trim(file.line_text(site.line));
  return sites;
}

/// Mark findings covered by a site as suppressed, and the covering sites as
/// used. A finding may be covered by several sites; all of them count.
void apply_sites(std::vector<SuppressionSite>& sites, std::vector<Finding>& findings) {
  for (Finding& finding : findings) {
    const Diagnostic& d = finding.diagnostic;
    for (SuppressionSite& site : sites) {
      if (site.rule != d.rule_id) continue;
      if (!site.whole_file && (d.line < site.cover_begin || d.line > site.cover_end)) continue;
      site.used = true;
      finding.suppressed = true;
    }
  }
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    const Diagnostic& x = a.diagnostic;
    const Diagnostic& y = b.diagnostic;
    return std::tie(x.path, x.line, x.col, x.rule_id, x.message) <
           std::tie(y.path, y.line, y.col, y.rule_id, y.message);
  });
}

[[nodiscard]] bool has_extension(const std::string& path, const char* ext) {
  const std::string suffix{ext};
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

[[nodiscard]] bool cpp_file(const std::string& path) {
  return has_extension(path, ".cpp") || has_extension(path, ".cc") ||
         has_extension(path, ".hpp") || has_extension(path, ".h") || has_extension(path, ".hh");
}

[[nodiscard]] std::vector<Finding> findings_from(std::vector<Diagnostic> diagnostics,
                                                 const SourceFile& file) {
  std::vector<Finding> findings;
  findings.reserve(diagnostics.size());
  for (Diagnostic& diagnostic : diagnostics) {
    Finding finding;
    finding.line_text = diagnostic.key_text.empty() ? trim(file.line_text(diagnostic.line))
                                                    : diagnostic.key_text;
    finding.diagnostic = std::move(diagnostic);
    findings.push_back(std::move(finding));
  }
  return findings;
}

/// 1-based line number of byte offset `pos` in `content`.
[[nodiscard]] int line_of_offset(const std::string& content, std::size_t pos) {
  int line = 1;
  for (std::size_t i = 0; i < pos && i < content.size(); ++i) {
    if (content[i] == '\n') ++line;
  }
  return line;
}

}  // namespace

std::vector<Finding> lint_cpp_source(const SourceFile& file) {
  std::vector<Diagnostic> diagnostics;
  run_cpp_rules(file, diagnostics);
  std::vector<Finding> findings = findings_from(std::move(diagnostics), file);
  std::vector<SuppressionSite> sites = collect_sites(file);
  apply_sites(sites, findings);
  sort_findings(findings);
  return findings;
}

std::vector<Finding> lint_campaign_text(const std::string& path, const std::string& content) {
  std::vector<Diagnostic> diagnostics;
  run_campaign_rules(path, content, diagnostics);
  std::vector<Finding> findings;
  const bool allow_all = content.find("nomc-lint: allow(golden-regen-note)") != std::string::npos;
  for (Diagnostic& diagnostic : diagnostics) {
    Finding finding;
    finding.suppressed = allow_all;
    finding.diagnostic = std::move(diagnostic);
    findings.push_back(std::move(finding));
  }
  sort_findings(findings);
  return findings;
}

bool lint_path(const std::string& path, std::vector<Finding>& out, std::string& error) {
  FileLint file;
  if (!lint_file(path, /*root=*/{}, file, error)) return false;
  out.insert(out.end(), std::make_move_iterator(file.findings.begin()),
             std::make_move_iterator(file.findings.end()));
  return true;
}

bool lint_file(const std::string& path, const std::string& root, FileLint& out,
               std::string& error) {
  out = FileLint{};
  out.module = module_of(path, root);
  if (cpp_file(path)) {
    SourceFile file;
    if (!scan_file(path, file, error)) return false;
    std::vector<Diagnostic> diagnostics;
    run_cpp_rules(file, diagnostics);
    out.findings = findings_from(std::move(diagnostics), file);
    out.sites = collect_sites(file);
    apply_sites(out.sites, out.findings);
    sort_findings(out.findings);
    collect_include_edges(file, root, out.edges);
    return true;
  }
  if (has_extension(path, ".campaign")) {
    SourceFile file;  // reuse the reader; tokens are ignored for specs
    if (!scan_file(path, file, error)) return false;
    out.findings = lint_campaign_text(file.path, file.content);
    // The scanner does not parse '#' comments, so the allow-everything
    // directive becomes a synthetic whole-file site; its usage feeds the
    // stale pass exactly like a C++ directive.
    const std::string directive = "nomc-lint: allow(golden-regen-note)";
    const std::size_t at = file.content.find(directive);
    if (at != std::string::npos) {
      SuppressionSite site;
      site.line = line_of_offset(file.content, at);
      site.col = 1;
      site.cover_begin = site.cover_end = site.line;
      site.rule = "golden-regen-note";
      site.line_text = trim(file.line_text(site.line));
      site.whole_file = true;
      site.used = !out.findings.empty();
      out.sites.push_back(std::move(site));
    }
    return true;
  }
  return true;  // unsupported extension: nothing to do
}

bool collect_files(const std::string& root, std::vector<std::string>& out, std::string& error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::file_status status = fs::status(root, ec);
  if (ec) {
    error = "cannot stat " + root + ": " + ec.message();
    return false;
  }
  if (fs::is_regular_file(status)) {
    out.push_back(root);
    return true;
  }
  if (!fs::is_directory(status)) {
    error = root + " is neither a file nor a directory";
    return false;
  }
  std::vector<std::string> found;
  for (fs::recursive_directory_iterator it{root, ec}, end; it != end; it.increment(ec)) {
    if (ec) {
      error = "walking " + root + ": " + ec.message();
      return false;
    }
    const std::string path = it->path().generic_string();
    if (it->is_directory()) {
      // Lint fixtures are deliberate rule violations — test data, not code.
      // An explicit root inside the fixture tree still scans (the lint test
      // suite does exactly that); the exclusion only guards tree walks.
      const std::string marker = "tests/lint/fixtures";
      if (path.size() >= marker.size() &&
          path.compare(path.size() - marker.size(), marker.size(), marker) == 0) {
        it.disable_recursion_pending();
      }
      continue;
    }
    if (!it->is_regular_file()) continue;
    if (cpp_file(path) || has_extension(path, ".campaign")) found.push_back(path);
  }
  std::sort(found.begin(), found.end());
  out.insert(out.end(), found.begin(), found.end());
  return true;
}

bool Baseline::load(const std::string& path, std::string& error) {
  path_ = path;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return true;  // missing baseline = empty baseline
  std::string content;
  char buffer[1 << 14];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) content.append(buffer, got);
  std::fclose(file);
  std::size_t start = 0;
  int line_number = 0;
  bool pending_allow_stale = false;
  while (start <= content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    const std::string line = trim(content.substr(start, end - start));
    ++line_number;
    start = end + 1;
    if (end == content.size() && line.empty()) break;
    if (line.empty()) {
      pending_allow_stale = false;
      continue;
    }
    if (line[0] == '#') {
      pending_allow_stale = line.find("nomc-lint:") != std::string::npos &&
                            line.find("allow(lint-stale-baseline)") != std::string::npos;
      continue;
    }
    // path|rule|line text — two pipes minimum.
    const std::size_t first = line.find('|');
    const std::size_t second = first == std::string::npos ? std::string::npos
                                                          : line.find('|', first + 1);
    if (second == std::string::npos) {
      error = path + ":" + std::to_string(line_number) + ": malformed baseline entry";
      return false;
    }
    Entry entry;
    entry.key = line;
    entry.line = line_number;
    entry.allow_stale = pending_allow_stale;
    pending_allow_stale = false;
    entries_.push_back(std::move(entry));
  }
  return true;
}

std::string Baseline::key(const Finding& finding) {
  return finding.diagnostic.path + "|" + finding.diagnostic.rule_id + "|" + finding.line_text;
}

void Baseline::apply(std::vector<Finding>& findings) {
  for (Finding& finding : findings) {
    if (finding.suppressed) continue;
    const std::string key_text = key(finding);
    const auto it = std::find_if(entries_.begin(), entries_.end(), [&](const Entry& entry) {
      return !entry.matched && entry.key == key_text;
    });
    if (it != entries_.end()) {
      finding.baselined = true;
      it->matched = true;
    }
  }
}

std::vector<Finding> Baseline::stale_findings() const {
  std::vector<Finding> out;
  for (const Entry& entry : entries_) {
    if (entry.matched) continue;
    Finding finding;
    finding.diagnostic.path = path_;
    finding.diagnostic.line = entry.line;
    finding.diagnostic.col = 1;
    finding.diagnostic.rule_id = "lint-stale-baseline";
    finding.diagnostic.message =
        "baseline entry matches no finding: '" + entry.key +
        "' — delete the burned-down entry (or justify it with a "
        "`nomc-lint: allow(lint-stale-baseline)` comment directly above)";
    finding.line_text = entry.key;
    finding.suppressed = entry.allow_stale;
    out.push_back(std::move(finding));
  }
  return out;
}

std::string Baseline::serialize(const std::vector<Finding>& findings) {
  std::string out =
      "# nomc-lint baseline — grandfathered findings, one `path|rule|line` entry each.\n"
      "# Regenerate with `nomc-lint --write-baseline`; keep a justification comment\n"
      "# above every entry you re-admit. New findings never match this file.\n";
  for (const Finding& finding : findings) {
    if (finding.suppressed || finding.baselined) continue;
    out += Baseline::key(finding);
    out += '\n';
  }
  return out;
}

namespace {

/// The stale-tracking rules are exempt from staleness themselves, so a
/// justified meta-suppression does not demand an infinite tower of allows.
[[nodiscard]] bool meta_rule(const std::string& rule) {
  return rule == "lint-stale-suppress" || rule == "lint-stale-baseline";
}

}  // namespace

bool run_lint(const RunOptions& options, RunResult& result, std::string& error) {
  result = RunResult{};

  LayerSpec spec;
  const bool arch_pass = !options.layers_path.empty();
  if (arch_pass && !spec.load(options.layers_path, error)) return false;

  std::vector<std::string> files;
  {
    std::set<std::string> seen;
    for (const std::string& root : options.roots) {
      std::vector<std::string> batch;
      if (!collect_files(root, batch, error)) return false;
      for (std::string& path : batch) {
        if (seen.insert(path).second) files.push_back(std::move(path));
      }
    }
  }
  result.file_count = files.size();

  // Per-file stage, in collection order.
  std::vector<FileLint> stages(files.size());
  std::vector<Finding>& findings = result.findings;
  std::map<std::string, std::size_t> stage_of_path;
  std::set<std::string> modules_on_disk;
  std::vector<IncludeEdge> edges;
  for (std::size_t i = 0; i < files.size(); ++i) {
    FileLint& lint = stages[i];
    if (!lint_file(files[i], options.root_prefix, lint, error)) return false;
    stage_of_path.emplace(files[i], i);
    if (!lint.module.empty()) modules_on_disk.insert(lint.module);
    edges.insert(edges.end(), std::make_move_iterator(lint.edges.begin()),
                 std::make_move_iterator(lint.edges.end()));
    findings.insert(findings.end(), std::make_move_iterator(lint.findings.begin()),
                    std::make_move_iterator(lint.findings.end()));
  }

  // Whole-program architecture pass. Graph findings are suppressible at the
  // include directive they anchor to, through the same sites as any rule.
  if (arch_pass) {
    std::vector<Diagnostic> diagnostics;
    run_graph_rules(spec, edges, modules_on_disk, diagnostics);
    for (Diagnostic& diagnostic : diagnostics) {
      Finding finding;
      finding.line_text = diagnostic.key_text;
      finding.diagnostic = std::move(diagnostic);
      if (finding.diagnostic.rule_id == "arch-missing-spec" && spec.allows_missing()) {
        finding.suppressed = true;
      }
      const auto it = stage_of_path.find(finding.diagnostic.path);
      if (it != stage_of_path.end()) {
        std::vector<Finding> one;
        one.push_back(std::move(finding));
        apply_sites(stages[it->second].sites, one);
        finding = std::move(one.front());
      }
      findings.push_back(std::move(finding));
    }
  }

  // Stale-suppression pass: every directive must have earned its keep by
  // now (per-file rules and the graph pass both mark usage).
  for (std::size_t i = 0; i < stages.size(); ++i) {
    std::vector<SuppressionSite>& sites = stages[i].sites;
    std::vector<Finding> stale;
    for (const SuppressionSite& site : sites) {
      if (site.used || meta_rule(site.rule)) continue;
      Finding finding;
      finding.diagnostic.path = files[i];
      finding.diagnostic.line = site.line;
      finding.diagnostic.col = site.col;
      finding.diagnostic.rule_id = "lint-stale-suppress";
      finding.diagnostic.message =
          known_rule(site.rule)
              ? "suppression '" + std::string{site.whole_file ? "allow-file" : "allow"} + "(" +
                    site.rule + ")' matches no finding — delete the dead directive"
              : "suppression names unknown rule '" + site.rule +
                    "' — not in the catalog (typo?)";
      finding.line_text = site.line_text;
      stale.push_back(std::move(finding));
    }
    apply_sites(sites, stale);
    findings.insert(findings.end(), std::make_move_iterator(stale.begin()),
                    std::make_move_iterator(stale.end()));
  }

  // Baseline pass, last: it may absorb findings from every stage above, and
  // whatever it no longer absorbs is itself a finding.
  if (!options.baseline_path.empty()) {
    Baseline baseline;
    if (!baseline.load(options.baseline_path, error)) return false;
    baseline.apply(findings);
    std::vector<Finding> stale = baseline.stale_findings();
    findings.insert(findings.end(), std::make_move_iterator(stale.begin()),
                    std::make_move_iterator(stale.end()));
  }

  sort_findings(findings);
  return true;
}

std::string format_diagnostic(const Finding& finding) {
  const Diagnostic& d = finding.diagnostic;
  std::string out = d.path + ":" + std::to_string(d.line) + ":" + std::to_string(d.col) +
                    ": warning: " + d.message + " [" + d.rule_id + "]";
  return out;
}

}  // namespace nomc::lint
