// nomc-lint test suite: tokenizer unit tests, fixture-driven rule tests
// (each rule firing AND being suppressed), suppression/baseline mechanics,
// and the diagnostic format contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "lint/driver.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"

namespace nomc::lint {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string{NOMC_LINT_FIXTURE_DIR} + "/" + name;
}

std::vector<Finding> lint_fixture(const std::string& name) {
  SourceFile file;
  std::string error;
  EXPECT_TRUE(scan_file(fixture_path(name), file, error)) << error;
  return lint_cpp_source(file);
}

/// The (rule, line) pairs of findings, filtered by suppression state.
std::vector<std::pair<std::string, int>> fired(const std::vector<Finding>& findings,
                                               bool suppressed) {
  std::vector<std::pair<std::string, int>> out;
  for (const Finding& finding : findings) {
    if (finding.suppressed == suppressed) {
      out.emplace_back(finding.diagnostic.rule_id, finding.diagnostic.line);
    }
  }
  return out;
}

// ---- Tokenizer -----------------------------------------------------------

TEST(LintSource, TokenizesWithPositions) {
  const SourceFile file = scan_source("t.cpp", "int a = 42;\n  foo(a);\n");
  ASSERT_GE(file.tokens.size(), 8u);
  EXPECT_EQ(file.tokens[0].text, "int");
  EXPECT_EQ(file.tokens[0].line, 1);
  EXPECT_EQ(file.tokens[0].col, 1);
  EXPECT_EQ(file.tokens[3].text, "42");
  EXPECT_EQ(file.tokens[3].kind, Token::Kind::kNumber);
  EXPECT_EQ(file.tokens[5].text, "foo");
  EXPECT_EQ(file.tokens[5].line, 2);
  EXPECT_EQ(file.tokens[5].col, 3);
}

TEST(LintSource, CommentsAreCapturedNotTokenized) {
  const SourceFile file = scan_source("t.cpp", "// line note\nint x; /* block\nspan */ int y;\n");
  ASSERT_EQ(file.comments.size(), 2u);
  EXPECT_EQ(file.comments[0].text, " line note");
  EXPECT_EQ(file.comments[0].line, 1);
  EXPECT_EQ(file.comments[1].line, 2);
  EXPECT_EQ(file.comments[1].end_line, 3);
  for (const Token& token : file.tokens) {
    EXPECT_NE(token.text, "note");
    EXPECT_NE(token.text, "span");
  }
}

TEST(LintSource, StringContentsStayOutOfIdentifiers) {
  const SourceFile file = scan_source("t.cpp", "call(\"rand() inside\");\n");
  int identifiers = 0;
  for (const Token& token : file.tokens) {
    if (token.kind == Token::Kind::kIdentifier) {
      ++identifiers;
      EXPECT_EQ(token.text, "call");
    }
  }
  EXPECT_EQ(identifiers, 1);
}

TEST(LintSource, RawStringsAndEscapes) {
  const SourceFile file = scan_source(
      "t.cpp", "auto a = R\"(no \" stop)\"; auto b = \"esc \\\" quote\";\n");
  int strings = 0;
  for (const Token& token : file.tokens) {
    if (token.kind == Token::Kind::kString) ++strings;
  }
  EXPECT_EQ(strings, 2);
}

TEST(LintSource, ArrowIsNotAMinus) {
  const SourceFile file = scan_source("t.cpp", "p->value;\n");
  for (const Token& token : file.tokens) {
    EXPECT_NE(token.text, "-");
  }
}

// ---- Determinism rules ---------------------------------------------------

TEST(LintRules, DetRandFiresAndSuppresses) {
  const std::vector<Finding> findings = lint_fixture("det_rand.cpp");
  const auto active = fired(findings, /*suppressed=*/false);
  const std::vector<std::pair<std::string, int>> expected = {
      {"det-rand", 7},  // srand
      {"det-time-seed", 7},
      {"det-rand", 8},   // rand
      {"det-rand", 9},   // random_device
      {"det-rand", 10},  // mt19937
  };
  auto sorted_active = active;
  auto sorted_expected = expected;
  std::sort(sorted_active.begin(), sorted_active.end());
  std::sort(sorted_expected.begin(), sorted_expected.end());
  EXPECT_EQ(sorted_active, sorted_expected);
  const auto muted = fired(findings, /*suppressed=*/true);
  ASSERT_EQ(muted.size(), 1u);
  EXPECT_EQ(muted[0], (std::pair<std::string, int>{"det-rand", 12}));
}

TEST(LintRules, DetRandExemptInSimRandom) {
  const SourceFile file =
      scan_source("src/sim/random.cpp", "int x = rand();\nauto r = std::random_device{};\n");
  std::vector<Diagnostic> diagnostics;
  run_cpp_rules(file, diagnostics);
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintRules, DetRawThreadFiresAndSuppresses) {
  const std::vector<Finding> findings = lint_fixture("det_thread.cpp");
  const auto active = fired(findings, /*suppressed=*/false);
  const std::vector<std::pair<std::string, int>> expected = {
      {"det-raw-thread", 7},  // std::thread
      {"det-raw-thread", 8},  // std::async
      {"det-raw-thread", 9},  // std::jthread
  };
  EXPECT_EQ(active, expected);
  const auto muted = fired(findings, /*suppressed=*/true);
  ASSERT_EQ(muted.size(), 1u);
  EXPECT_EQ(muted[0], (std::pair<std::string, int>{"det-raw-thread", 11}));
}

TEST(LintRules, DetRawThreadExemptInRunners) {
  for (const char* path : {"src/sim/parallel.cpp", "src/sim/region_executor.cpp"}) {
    const SourceFile file = scan_source(path, "std::thread t{[] {}};\n");
    std::vector<Diagnostic> diagnostics;
    run_cpp_rules(file, diagnostics);
    EXPECT_TRUE(diagnostics.empty()) << path;
  }
}

TEST(LintRules, SvcRawSocketFiresAndSuppresses) {
  const std::vector<Finding> findings = lint_fixture("svc_socket.cpp");
  const auto active = fired(findings, /*suppressed=*/false);
  const std::vector<std::pair<std::string, int>> expected = {
      {"svc-raw-socket", 6},   // socket
      {"svc-raw-socket", 7},   // ::bind
      {"svc-raw-socket", 8},   // listen
      {"svc-raw-socket", 9},   // ::accept
      {"svc-raw-socket", 10},  // connect
  };
  EXPECT_EQ(active, expected);
  const auto muted = fired(findings, /*suppressed=*/true);
  const std::vector<std::pair<std::string, int>> expected_muted = {
      {"svc-raw-socket", 12},  // allowed socket()
      {"svc-raw-socket", 19},  // FakeClient::connect declaration
  };
  EXPECT_EQ(muted, expected_muted);
}

TEST(LintRules, SvcRawSocketExemptInServiceLayer) {
  for (const char* path :
       {"src/svc/socket.cpp", "src/svc/server.cpp", "src/svc/cache.cpp"}) {
    const SourceFile file =
        scan_source(path, "int fd = socket(1, 1, 0);\n::connect(fd, nullptr, 0);\n");
    std::vector<Diagnostic> diagnostics;
    run_cpp_rules(file, diagnostics);
    EXPECT_TRUE(diagnostics.empty()) << path;
  }
}

TEST(LintRules, SvcRawSocketIgnoresMemberAndStdCalls) {
  const SourceFile file = scan_source(
      "tools/x.cpp",
      "void f(Client& c, Client* p) { c.connect(1); p->connect(2); std::bind(f); }\n");
  std::vector<Diagnostic> diagnostics;
  run_cpp_rules(file, diagnostics);
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintRules, SvcRawForkFiresAndSuppresses) {
  const std::vector<Finding> findings = lint_fixture("svc_fork.cpp");
  const auto active = fired(findings, /*suppressed=*/false);
  const std::vector<std::pair<std::string, int>> expected = {
      {"svc-raw-fork", 7},   // fork
      {"svc-raw-fork", 8},   // ::execv
      {"svc-raw-fork", 9},   // execvp
      {"svc-raw-fork", 11},  // ::waitpid
  };
  EXPECT_EQ(active, expected);
  const auto muted = fired(findings, /*suppressed=*/true);
  const std::vector<std::pair<std::string, int>> expected_muted = {
      {"svc-raw-fork", 13},  // allowed fork()
      {"svc-raw-fork", 20},  // FakeSupervisor::fork declaration
  };
  EXPECT_EQ(muted, expected_muted);
}

TEST(LintRules, SvcRawForkHasNoExemptPath) {
  // No path is exempt, not even the one that used to host process
  // supervision.
  const SourceFile former = scan_source(
      "src/svc/worker_pool.cpp", "int pid = fork();\n::waitpid(pid, nullptr, 0);\n");
  std::vector<Diagnostic> diagnostics;
  run_cpp_rules(former, diagnostics);
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].rule_id, "svc-raw-fork");
  EXPECT_EQ(diagnostics[0].line, 1);
  EXPECT_EQ(diagnostics[1].rule_id, "svc-raw-fork");
  EXPECT_EQ(diagnostics[1].line, 2);

  // The socket exemption for src/svc/ does not bleed into process control.
  const SourceFile server = scan_source("src/svc/server.cpp", "int pid = fork();\n");
  diagnostics.clear();
  run_cpp_rules(server, diagnostics);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule_id, "svc-raw-fork");
}

TEST(LintRules, SvcRawForkIgnoresMemberAndStdCalls) {
  const SourceFile file = scan_source(
      "tools/x.cpp",
      "void f(Pool& w, Pool* p) { w.fork(1); p->execv(2); std::execv(3); }\n");
  std::vector<Diagnostic> diagnostics;
  run_cpp_rules(file, diagnostics);
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintRules, DetUnorderedOutput) {
  const std::vector<Finding> findings = lint_fixture("det_unordered.cpp");
  const auto active = fired(findings, false);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], (std::pair<std::string, int>{"det-unordered-output", 9}));
  const auto muted = fired(findings, true);
  ASSERT_EQ(muted.size(), 1u);
  EXPECT_EQ(muted[0], (std::pair<std::string, int>{"det-unordered-output", 22}));
}

TEST(LintRules, DetGFormat) {
  const std::vector<Finding> findings = lint_fixture("det_format.cpp");
  const auto active = fired(findings, false);
  const std::vector<std::pair<std::string, int>> expected = {{"det-g-format", 6},
                                                            {"det-g-format", 7}};
  EXPECT_EQ(active, expected);
  const auto muted = fired(findings, true);
  ASSERT_EQ(muted.size(), 1u);
  EXPECT_EQ(muted[0].second, 11);
}

TEST(LintRules, DetGFormatPinnedStoreExemption) {
  const std::string pinned = std::string{"\"%.17"} + "g\"";
  const SourceFile store = scan_source("src/exp/result_store.cpp",
                                       "snprintf(b, n, " + pinned + ", v);\n");
  std::vector<Diagnostic> diagnostics;
  run_cpp_rules(store, diagnostics);
  EXPECT_TRUE(diagnostics.empty());
  // The same spelling anywhere else still fires.
  const SourceFile other =
      scan_source("src/stats/table.cpp", "snprintf(b, n, " + pinned + ", v);\n");
  diagnostics.clear();
  run_cpp_rules(other, diagnostics);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule_id, "det-g-format");
}

// ---- Unit rules ----------------------------------------------------------

TEST(LintRules, UnitDbmMwMix) {
  const std::vector<Finding> findings = lint_fixture("unit_mix.cpp");
  const auto active = fired(findings, false);
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], (std::pair<std::string, int>{"unit-dbm-mw-mix", 6}));
  const auto muted = fired(findings, true);
  ASSERT_EQ(muted.size(), 1u);
  EXPECT_EQ(muted[0], (std::pair<std::string, int>{"unit-dbm-mw-mix", 10}));
}

TEST(LintRules, UnitNakedCca) {
  const std::vector<Finding> findings = lint_fixture("unit_cca.cpp");
  const auto active = fired(findings, false);
  const std::vector<std::pair<std::string, int>> expected = {{"unit-naked-cca", 8},
                                                            {"unit-naked-cca", 9}};
  EXPECT_EQ(active, expected);
  const auto muted = fired(findings, true);
  ASSERT_EQ(muted.size(), 1u);
  EXPECT_EQ(muted[0].second, 19);
}

TEST(LintRules, UnitNakedCcaExemptInConfigHeaders) {
  for (const char* path : {"src/dcn/config.hpp", "src/mac/cca.hpp"}) {
    const SourceFile file = scan_source(path, "#pragma once\nphy::Dbm threshold{-77.0};\n");
    std::vector<Diagnostic> diagnostics;
    run_cpp_rules(file, diagnostics);
    EXPECT_TRUE(diagnostics.empty()) << path;
  }
}

// ---- Hygiene rules -------------------------------------------------------

TEST(LintRules, HeaderHygieneFires) {
  const std::vector<Finding> findings = lint_fixture("hyg_header.hpp");
  const auto active = fired(findings, false);
  const std::vector<std::pair<std::string, int>> expected = {
      {"hyg-pragma-once", 1}, {"hyg-using-namespace-std", 5}, {"hyg-todo-issue", 7}};
  auto sorted_active = active;
  std::sort(sorted_active.begin(), sorted_active.end());
  auto sorted_expected = expected;
  std::sort(sorted_expected.begin(), sorted_expected.end());
  EXPECT_EQ(sorted_active, sorted_expected);
}

TEST(LintRules, CleanHeaderStaysClean) {
  const std::vector<Finding> findings = lint_fixture("hyg_clean.hpp");
  EXPECT_TRUE(findings.empty());
}

TEST(LintRules, UsingNamespaceStdAllowedInSourceFiles) {
  const SourceFile file = scan_source("tools/x.cpp", "using namespace std;\n");
  std::vector<Diagnostic> diagnostics;
  run_cpp_rules(file, diagnostics);
  EXPECT_TRUE(diagnostics.empty());
}

// ---- Suppressions --------------------------------------------------------

TEST(LintDriver, AllowFileCoversWholeFile) {
  const std::vector<Finding> findings = lint_fixture("allow_file.cpp");
  EXPECT_FALSE(findings.empty());
  for (const Finding& finding : findings) {
    EXPECT_TRUE(finding.suppressed) << format_diagnostic(finding);
  }
}

TEST(LintDriver, SameLineSuppression) {
  const std::string src = "void f() { g(\"x=%" + std::string{"g"} +
                          "\", 1.0); }  // nomc-lint: allow(det-g-format)\n";
  const std::vector<Finding> findings = lint_cpp_source(scan_source("a.cpp", src));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings[0].suppressed);
}

TEST(LintDriver, SuppressionDoesNotLeakToLaterLines) {
  const std::string g = "g";
  const std::string src = "// nomc-lint: allow(det-g-format)\nf(\"%" + g +
                          "\", x);\nf(\"%" + g + "\", y);\n";
  const std::vector<Finding> findings = lint_cpp_source(scan_source("a.cpp", src));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(findings[0].suppressed);   // line 2: covered
  EXPECT_FALSE(findings[1].suppressed);  // line 3: not covered
}

// ---- Diagnostics and baseline --------------------------------------------

TEST(LintDriver, DiagnosticFormatIsClangStyle) {
  const std::vector<Finding> findings =
      lint_cpp_source(scan_source("src/x.cpp", "int v = rand();\n"));
  ASSERT_EQ(findings.size(), 1u);
  const std::string text = format_diagnostic(findings[0]);
  EXPECT_EQ(text.find("src/x.cpp:1:9: warning: "), 0u) << text;
  EXPECT_NE(text.find("[det-rand]"), std::string::npos) << text;
}

TEST(LintDriver, BaselineMatchesOnContentNotLineNumber) {
  const std::vector<Finding> original =
      lint_cpp_source(scan_source("src/x.cpp", "int v = rand();\n"));
  const std::string serialized = Baseline::serialize(original);
  EXPECT_NE(serialized.find("src/x.cpp|det-rand|int v = rand();"), std::string::npos);

  // Same content drifted two lines down: still baselined.
  std::vector<Finding> drifted =
      lint_cpp_source(scan_source("src/x.cpp", "// pad\n// pad\nint v = rand();\n"));
  Baseline baseline;
  const std::string path = std::string{NOMC_LINT_FIXTURE_DIR} + "/tmp_baseline.txt";
  {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(serialized.data(), 1, serialized.size(), out);
    std::fclose(out);
  }
  std::string error;
  ASSERT_TRUE(baseline.load(path, error)) << error;
  std::remove(path.c_str());
  baseline.apply(drifted);
  ASSERT_EQ(drifted.size(), 1u);
  EXPECT_TRUE(drifted[0].baselined);

  // A second identical finding is NOT absorbed by the single entry.
  std::vector<Finding> doubled = lint_cpp_source(
      scan_source("src/x.cpp", "int v = rand();\nint w = rand();\n"));
  Baseline again;
  {
    std::FILE* out = std::fopen(path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(serialized.data(), 1, serialized.size(), out);
    std::fclose(out);
  }
  ASSERT_TRUE(again.load(path, error)) << error;
  std::remove(path.c_str());
  again.apply(doubled);
  int baselined = 0;
  int fresh = 0;
  for (const Finding& finding : doubled) {
    (finding.baselined ? baselined : fresh) += 1;
  }
  EXPECT_EQ(baselined, 1);
  EXPECT_EQ(fresh, 1);
}

TEST(LintDriver, MissingBaselineIsEmpty) {
  Baseline baseline;
  std::string error;
  EXPECT_TRUE(baseline.load("definitely/does/not/exist.baseline", error));
  EXPECT_EQ(baseline.size(), 0u);
}

// ---- Campaign spec rules -------------------------------------------------

TEST(LintRules, GoldenRegenNote) {
  std::vector<Diagnostic> diagnostics;
  run_campaign_rules("tests/golden/x_small.campaign",
                     "# shrink of fig-something\nname = x_small\n", diagnostics);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule_id, "golden-regen-note");

  diagnostics.clear();
  run_campaign_rules("tests/golden/x_small.campaign",
                     "# regenerate with\n# `nomc-campaign run tests/golden/x_small.campaign "
                     "--overwrite`\nname = x_small\n",
                     diagnostics);
  EXPECT_TRUE(diagnostics.empty());

  // Non-golden campaign specs are out of scope.
  diagnostics.clear();
  run_campaign_rules("examples/campaigns/fig01.campaign", "name = fig01\n", diagnostics);
  EXPECT_TRUE(diagnostics.empty());
}

TEST(LintRules, GoldenRegenNoteMustBeInHeaderComment) {
  // The command below the first statement does not count: the ctest guard
  // only reads the leading comment block.
  std::vector<Diagnostic> diagnostics;
  run_campaign_rules("tests/golden/x_small.campaign",
                     "# shrink\nname = x_small\n# nomc-campaign run x --overwrite\n",
                     diagnostics);
  ASSERT_EQ(diagnostics.size(), 1u);
}

// ---- Catalog -------------------------------------------------------------

TEST(LintRules, CatalogKnowsEveryEmittedRule) {
  EXPECT_TRUE(known_rule("det-rand"));
  EXPECT_TRUE(known_rule("golden-regen-note"));
  EXPECT_TRUE(known_rule("arch-layer-violation"));
  EXPECT_TRUE(known_rule("lint-stale-suppress"));
  EXPECT_FALSE(known_rule("not-a-rule"));
  EXPECT_GE(rule_catalog().size(), 10u);
}

// ---- Include graph -------------------------------------------------------

TEST(LintGraph, ModuleOfMapsDirectoriesToModules) {
  EXPECT_EQ(module_of("src/phy/medium.cpp"), "phy");
  EXPECT_EQ(module_of("src/lint/graph.hpp"), "lint");
  EXPECT_EQ(module_of("tools/nomc_lint.cpp"), "tools");
  EXPECT_EQ(module_of("tests/svc/service_test.cpp"), "tests");
  EXPECT_EQ(module_of("lonely.cpp"), "");
  EXPECT_EQ(module_of("/tmp/fx/src/a/x.cpp", "/tmp/fx"), "a");
  EXPECT_EQ(module_of("/tmp/fx/src/a/x.cpp", "/tmp/fx/"), "a");
}

TEST(LintGraph, CollectsOnlyModuleCrossingQuotedIncludes) {
  const SourceFile file = scan_source(
      "src/mac/csma.cpp",
      "#include \"mac/csma.hpp\"\n#include <vector>\n#include \"phy/radio.hpp\"\n"
      "#include \"local.hpp\"\n");
  std::vector<IncludeEdge> edges;
  collect_include_edges(file, /*root=*/{}, edges);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from, "mac");
  EXPECT_EQ(edges[0].to, "phy");
  EXPECT_EQ(edges[0].line, 3);
  EXPECT_EQ(edges[0].line_text, "#include \"phy/radio.hpp\"");
}

TEST(LintGraph, LayerSpecGrammar) {
  LayerSpec spec;
  std::string error;
  ASSERT_TRUE(spec.parse("layers.txt",
                         "# comment\n"
                         "sim:\n"
                         "phy: sim   # trailing comment\n"
                         "tools: *\n",
                         error))
      << error;
  EXPECT_EQ(spec.size(), 3u);
  EXPECT_TRUE(spec.has("phy"));
  EXPECT_FALSE(spec.has("mac"));
  EXPECT_TRUE(spec.allows("phy", "sim"));
  EXPECT_TRUE(spec.allows("phy", "phy"));  // self-edges always legal
  EXPECT_FALSE(spec.allows("phy", "tools"));
  EXPECT_FALSE(spec.allows("sim", "phy"));
  EXPECT_TRUE(spec.allows("tools", "phy"));  // wildcard
  EXPECT_EQ(spec.allowed_list("sim"), "(none)");
  EXPECT_EQ(spec.allowed_list("mac"), "(module not in spec)");
  EXPECT_FALSE(spec.allows_missing());

  LayerSpec bad;
  EXPECT_FALSE(bad.parse("layers.txt", "just words\n", error));
  EXPECT_FALSE(bad.parse("layers.txt", "a:\na:\n", error));  // duplicate
  EXPECT_FALSE(bad.parse("layers.txt", "a!: b\n", error));   // bad name
}

// ---- Whole-program passes over fixture trees -----------------------------

/// (rule, path suffix, line) triples of findings in one suppression state.
std::vector<std::tuple<std::string, std::string, int>> where(
    const std::vector<Finding>& findings, bool suppressed) {
  std::vector<std::tuple<std::string, std::string, int>> out;
  for (const Finding& finding : findings) {
    if (finding.suppressed != suppressed) continue;
    const std::string& path = finding.diagnostic.path;
    const std::size_t slash = path.find_last_of('/');
    out.emplace_back(finding.diagnostic.rule_id,
                     slash == std::string::npos ? path : path.substr(slash + 1),
                     finding.diagnostic.line);
  }
  return out;
}

RunResult run_fixture_tree(const std::string& name) {
  RunOptions options;
  options.roots = {fixture_path(name)};
  options.root_prefix = fixture_path(name);
  options.layers_path = fixture_path(name + "/layers.txt");
  RunResult result;
  std::string error;
  EXPECT_TRUE(run_lint(options, result, error)) << error;
  return result;
}

TEST(LintGraph, ArchLayerViolationFiresCompliesAndSuppresses) {
  const RunResult result = run_fixture_tree("arch_violation");
  EXPECT_EQ(result.file_count, 4u);
  using T = std::tuple<std::string, std::string, int>;
  // The a -> b edge is allowed and produces nothing; c -> a fires once.
  EXPECT_EQ(where(result.findings, false),
            (std::vector<T>{{"arch-layer-violation", "uses_a.cpp", 2}}));
  EXPECT_EQ(where(result.findings, true),
            (std::vector<T>{{"arch-layer-violation", "sup.cpp", 2}}));
  for (const Finding& finding : result.findings) {
    if (finding.suppressed) continue;
    EXPECT_NE(finding.diagnostic.message.find("'c' may not include module 'a'"),
              std::string::npos)
        << finding.diagnostic.message;
  }
}

TEST(LintGraph, ArchCycleFiresWithFullPathAndSuppresses) {
  const RunResult firing = run_fixture_tree("arch_cycle");
  using T = std::tuple<std::string, std::string, int>;
  EXPECT_EQ(where(firing.findings, false), (std::vector<T>{{"arch-cycle", "a.cpp", 2}}));
  ASSERT_FALSE(firing.findings.empty());
  EXPECT_NE(firing.findings[0].diagnostic.message.find("a -> b -> a"), std::string::npos)
      << firing.findings[0].diagnostic.message;

  const RunResult muted = run_fixture_tree("arch_cycle_sup");
  EXPECT_TRUE(where(muted.findings, false).empty());
  EXPECT_EQ(where(muted.findings, true), (std::vector<T>{{"arch-cycle", "a.cpp", 2}}));
}

TEST(LintGraph, ArchMissingSpecFiresAndIsWaivableInSpec) {
  const RunResult firing = run_fixture_tree("arch_missing");
  using T = std::tuple<std::string, std::string, int>;
  EXPECT_EQ(where(firing.findings, false),
            (std::vector<T>{{"arch-missing-spec", "layers.txt", 1}}));
  ASSERT_FALSE(firing.findings.empty());
  EXPECT_NE(firing.findings[0].diagnostic.message.find("module 'b'"), std::string::npos);

  const RunResult waived = run_fixture_tree("arch_missing_sup");
  EXPECT_TRUE(where(waived.findings, false).empty());
  EXPECT_EQ(where(waived.findings, true),
            (std::vector<T>{{"arch-missing-spec", "layers.txt", 1}}));
}

// ---- Stale suppressions and stale baseline -------------------------------

TEST(LintStale, StaleSuppressFixture) {
  RunOptions options;
  options.roots = {fixture_path("stale_suppress.cpp")};
  RunResult result;
  std::string error;
  ASSERT_TRUE(run_lint(options, result, error)) << error;

  const auto active = fired(result.findings, /*suppressed=*/false);
  const std::vector<std::pair<std::string, int>> expected = {
      {"lint-stale-suppress", 10},  // dead allow(det-rand)
      {"lint-stale-suppress", 13},  // unknown rule
  };
  EXPECT_EQ(active, expected);

  const auto muted = fired(result.findings, /*suppressed=*/true);
  const std::vector<std::pair<std::string, int>> expected_muted = {
      {"det-rand", 7},              // the live suppression at work
      {"lint-stale-suppress", 18},  // justified via allow(lint-stale-suppress)
  };
  EXPECT_EQ(muted, expected_muted);

  // Dead-but-known and unknown-rule directives get distinct messages.
  for (const Finding& finding : result.findings) {
    if (finding.suppressed) continue;
    if (finding.diagnostic.line == 10) {
      EXPECT_NE(finding.diagnostic.message.find("matches no finding"), std::string::npos);
    }
    if (finding.diagnostic.line == 13) {
      EXPECT_NE(finding.diagnostic.message.find("unknown rule 'not-a-rule'"),
                std::string::npos);
    }
  }
}

TEST(LintStale, StaleBaselineFixture) {
  const std::string code = fixture_path("stale_baseline/code.cpp");
  const std::string line_text = "int noise() { return std::rand(); }";
  const std::string baseline_path = ::testing::TempDir() + "nomc_lint_stale.baseline";
  {
    const std::string content = "# fixture baseline\n" + code + "|det-rand|" + line_text +
                                "\n" + code + "|det-rand|int gone() { return std::rand(); }\n" +
                                "# nomc-lint: allow(lint-stale-baseline)\n" + code +
                                "|det-rand|int also_gone() { return std::rand(); }\n";
    std::FILE* out = std::fopen(baseline_path.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    std::fwrite(content.data(), 1, content.size(), out);
    std::fclose(out);
  }

  RunOptions options;
  options.roots = {code};
  options.baseline_path = baseline_path;
  RunResult result;
  std::string error;
  ASSERT_TRUE(run_lint(options, result, error)) << error;
  std::remove(baseline_path.c_str());

  std::vector<std::pair<std::string, int>> active;
  for (const Finding& finding : result.findings) {
    if (!finding.suppressed && !finding.baselined) {
      active.emplace_back(finding.diagnostic.rule_id, finding.diagnostic.line);
    }
  }
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], (std::pair<std::string, int>{"lint-stale-baseline", 3}));
  const auto muted = fired(result.findings, /*suppressed=*/true);
  ASSERT_EQ(muted.size(), 1u);  // the justified leftover on line 5
  EXPECT_EQ(muted[0], (std::pair<std::string, int>{"lint-stale-baseline", 5}));
  int baselined = 0;
  for (const Finding& finding : result.findings) {
    if (finding.baselined) {
      ++baselined;
      EXPECT_EQ(finding.diagnostic.rule_id, "det-rand");
    }
  }
  EXPECT_EQ(baselined, 1);
}

// ---- Parallel determinism ------------------------------------------------

TEST(LintParallel, RunLintIsByteIdenticalAtAnyJobCount) {
  auto render = [](int jobs) {
    RunOptions options;
    options.roots = {std::string{NOMC_LINT_FIXTURE_DIR}};
    options.jobs = jobs;
    RunResult result;
    std::string error;
    EXPECT_TRUE(run_lint(options, result, error)) << error;
    std::string out;
    for (const Finding& finding : result.findings) {
      out += format_diagnostic(finding);
      out += finding.suppressed ? " S" : finding.baselined ? " B" : " F";
      out += '\n';
    }
    return std::make_pair(result.file_count, out);
  };
  const auto serial = render(1);
  EXPECT_FALSE(serial.second.empty());  // fixtures fire by construction
  EXPECT_EQ(render(2), serial);
  EXPECT_EQ(render(7), serial);
}

}  // namespace
}  // namespace nomc::lint
