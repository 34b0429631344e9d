// nomc-lint rule catalog.
//
// Each rule is a pure function from a scanned SourceFile to diagnostics.
// Rules are heuristic by design — they work on the token stream, not a full
// AST — so every rule is named, documented, and individually suppressible
// with `// nomc-lint: allow(rule-id)` (see driver.hpp). The catalog:
//
// Determinism (the campaign store must be byte-identical at any job split):
//   det-rand              banned nondeterministic / stdlib RNG outside
//                         src/sim/random.* (rand, random_device, <random>
//                         engines and distributions, random_shuffle)
//   det-time-seed         wall-clock used as a seed: time(0)/time(nullptr)
//   det-unordered-output  range-for over an unordered container whose loop
//                         body reaches an output sink (store/checkpoint/
//                         CSV/stdio) — iteration order is not deterministic
//   det-raw-thread        std::thread/std::jthread/std::async outside
//                         src/sim/parallel* and src/sim/region_executor* —
//                         parallelism must flow through the deterministic
//                         runners (std::thread::hardware_concurrency stays
//                         legal; it is a pure query)
//   det-g-format          'g'-conversion float formatting anywhere except
//                         exp::result_store's pinned %.17g — shortest-round-
//                         trip output elsewhere silently loses precision
//
// Service layering (the campaign service owns all connection plumbing):
//   svc-raw-socket        bare socket()/bind()/listen()/accept()/connect()
//                         calls outside src/svc/ — connections must go
//                         through svc::Socket and the src/svc helpers so fd
//                         lifetimes and non-blocking setup live in one place
//                         (member calls like client.connect() stay legal)
//   svc-raw-fork          bare fork()/vfork()/exec*()/waitpid()/wait4()
//                         calls anywhere — the service computes in-process,
//                         so a spawned child needs a justified suppression
//                         (member calls stay legal)
//
// Unit safety (paper arithmetic: dBm is log scale, mW is linear):
//   unit-dbm-mw-mix       + or - between an identifier named like a dBm
//                         quantity and one named like milliwatts without a
//                         phy::to_milliwatts/to_dbm conversion in the
//                         expression
//   unit-naked-cca        a naked CCA-threshold literal (-77, -91) next to
//                         cca/threshold context outside dcn/config.hpp and
//                         mac/cca.hpp — use the named constants
//
// Hygiene:
//   hyg-pragma-once       header without #pragma once as its first directive
//   hyg-using-namespace-std  `using namespace std` in a header
//   hyg-todo-issue        TODO-/FIXME-marker without an owner/issue tag;
//                         compliant forms are TODO(#42) and TODO(name)
//
// Golden stores:
//   golden-regen-note     tests/golden/*.campaign spec missing the
//                         regeneration command (`nomc-campaign run ...
//                         --overwrite`) in its header comment — the ctest
//                         guard prints that command on byte drift
//
// Architecture (whole-program: the module include graph vs the checked-in
// layering spec tools/nomc_layers.txt — see lint/graph.hpp):
//   arch-layer-violation  a quoted #include crossing modules along an edge
//                         the spec does not permit
//   arch-cycle            a cycle in the module graph, reported with the
//                         full module path
//   arch-missing-spec     a module with files on disk but no spec entry
//
// Lint hygiene (whole-program: suppressions and the baseline must stay
// live, or dead ones hide tomorrow's real finding — see lint/driver.hpp):
//   lint-stale-suppress   an allow()/allow-file() directive whose rule
//                         produces no finding on the lines it covers, or
//                         that names a rule not in this catalog
//   lint-stale-baseline   a baseline entry that no longer matches any
//                         finding
//
// nomc-lint: allow-file(lint-stale-suppress) — the `allow(rule-id)` example
// above is quoted documentation, not a live suppression.
#pragma once

#include <string>
#include <vector>

#include "lint/source.hpp"

namespace nomc::lint {

struct Diagnostic {
  std::string path;
  int line = 1;
  int col = 1;
  std::string rule_id;
  std::string message;
  /// Baseline key material for findings whose anchor line is not a scanned
  /// source line (the graph and stale passes set it); when empty, the
  /// driver derives it from the anchored source line.
  std::string key_text;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// All rules, in catalog order (drives --list-rules and the docs).
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

/// True when `id` names a catalog rule.
[[nodiscard]] bool known_rule(const std::string& id);

/// Run every C++ rule applicable to `file` (path-based exemptions are the
/// rules' own business). Diagnostics are appended in source order.
void run_cpp_rules(const SourceFile& file, std::vector<Diagnostic>& out);

/// Run the campaign-spec rules (golden-regen-note) on a .campaign file.
void run_campaign_rules(const std::string& path, const std::string& content,
                        std::vector<Diagnostic>& out);

}  // namespace nomc::lint
