#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

namespace nomc::lint {

namespace {

[[nodiscard]] std::string lower(const std::string& text) {
  std::string out = text;
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

/// Suffix match on forward-slash paths, anchored at a path component.
[[nodiscard]] bool path_ends_with(const std::string& path, const std::string& suffix) {
  if (path.size() < suffix.size()) return false;
  if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) != 0) return false;
  return path.size() == suffix.size() || path[path.size() - suffix.size() - 1] == '/';
}

[[nodiscard]] bool path_contains(const std::string& path, const std::string& piece) {
  return path.find(piece) != std::string::npos;
}

void report(std::vector<Diagnostic>& out, const SourceFile& file, int line, int col,
            const char* rule, std::string message) {
  out.push_back(Diagnostic{file.path, line, col, rule, std::move(message)});
}

// ---- det-rand / det-time-seed -------------------------------------------

// Identifiers whose mere presence outside src/sim/random.* breaks the
// reproducibility contract: libc RNG, nondeterministic seeding, and <random>
// engines/distributions (whose outputs differ between standard libraries —
// the repo implements its own distributions for exactly that reason).
constexpr std::array kBannedRandomIdents = {
    "rand",          "srand",          "rand_r",
    "drand48",       "lrand48",        "mrand48",
    "random_device", "random_shuffle", "mt19937",
    "mt19937_64",    "minstd_rand",    "minstd_rand0",
    "ranlux24",      "ranlux48",       "knuth_b",
    "default_random_engine",           "uniform_int_distribution",
    "uniform_real_distribution",       "normal_distribution",
    "bernoulli_distribution",          "binomial_distribution",
    "exponential_distribution",        "poisson_distribution",
    "geometric_distribution",          "discrete_distribution",
};

void check_det_rand(const SourceFile& file, std::vector<Diagnostic>& out) {
  if (path_contains(file.path, "sim/random.")) return;  // the one sanctioned home
  for (const Token& token : file.tokens) {
    if (token.kind != Token::Kind::kIdentifier) continue;
    for (const char* banned : kBannedRandomIdents) {
      if (token.text == banned) {
        report(out, file, token.line, token.col, "det-rand",
               "'" + token.text + "' is banned outside src/sim/random.* — draw from a " +
                   "sim::RandomStream so replays stay bit-identical");
        break;
      }
    }
  }
}

void check_det_time_seed(const SourceFile& file, std::vector<Diagnostic>& out) {
  if (path_contains(file.path, "sim/random.")) return;
  const auto& tokens = file.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdentifier || tokens[i].text != "time") continue;
    if (tokens[i + 1].text != "(") continue;
    const std::string& arg = tokens[i + 2].text;
    if (arg == "0" || arg == "nullptr" || arg == "NULL") {
      report(out, file, tokens[i].line, tokens[i].col, "det-time-seed",
             "wall-clock time(" + arg + ") — a time-derived value must never seed or " +
                 "perturb a simulation; use the campaign/trial seed plumbing");
    }
  }
}

// ---- det-unordered-output ------------------------------------------------

constexpr std::array kUnorderedTypes = {"unordered_map", "unordered_set", "unordered_multimap",
                                        "unordered_multiset"};

constexpr std::array kExactSinks = {"fprintf", "printf", "fputs",      "fputc",  "fwrite",
                                    "puts",    "cout",   "cerr",       "clog",   "ofstream",
                                    "append_line",       "export_csv", "submit"};

[[nodiscard]] bool is_unordered_type(const std::string& text) {
  return std::find(kUnorderedTypes.begin(), kUnorderedTypes.end(), text) != kUnorderedTypes.end();
}

[[nodiscard]] bool is_output_sink(const std::string& ident) {
  for (const char* sink : kExactSinks) {
    if (ident == sink) return true;
  }
  const std::string low = lower(ident);
  return low.find("checkpoint") != std::string::npos || low.find("csv") != std::string::npos ||
         low.find("store") != std::string::npos;
}

/// Template-bracket depth delta of one token ("<" +1, ">>" -2, ...).
[[nodiscard]] int angle_delta(const std::string& text) {
  if (text == "<") return 1;
  if (text == "<<") return 2;
  if (text == ">") return -1;
  if (text == ">>") return -2;
  return 0;
}

void check_det_unordered_output(const SourceFile& file, std::vector<Diagnostic>& out) {
  const auto& tokens = file.tokens;

  // Pass 1: names declared with an unordered container type in this file.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdentifier || !is_unordered_type(tokens[i].text)) continue;
    std::size_t j = i + 1;
    if (j >= tokens.size() || tokens[j].text != "<") continue;
    int depth = 0;
    for (; j < tokens.size(); ++j) {
      depth += angle_delta(tokens[j].text);
      if (depth <= 0) break;
    }
    // After the closing '>': optional &/* and the declared name.
    for (++j; j < tokens.size() && (tokens[j].text == "&" || tokens[j].text == "*"); ++j) {
    }
    if (j < tokens.size() && tokens[j].kind == Token::Kind::kIdentifier) {
      unordered_names.insert(tokens[j].text);
    }
  }

  // Pass 2: range-fors whose range names an unordered container and whose
  // body reaches an output sink.
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdentifier || tokens[i].text != "for") continue;
    if (tokens[i + 1].text != "(") continue;
    // Find the range ':' and the header's closing ')'.
    int paren = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < tokens.size(); ++j) {
      const std::string& t = tokens[j].text;
      if (t == "(") ++paren;
      if (t == ")" && --paren == 0) {
        close = j;
        break;
      }
      if (t == ":" && paren == 1 && colon == 0) colon = j;
    }
    if (colon == 0 || close == 0) continue;  // classic for or malformed
    bool unordered_range = false;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (tokens[j].kind != Token::Kind::kIdentifier) continue;
      if (is_unordered_type(tokens[j].text) || unordered_names.count(tokens[j].text) > 0) {
        unordered_range = true;
        break;
      }
    }
    if (!unordered_range) continue;
    // Body: braced block or single statement.
    std::size_t body_end = close;
    if (close + 1 < tokens.size() && tokens[close + 1].text == "{") {
      int braces = 0;
      for (std::size_t j = close + 1; j < tokens.size(); ++j) {
        if (tokens[j].text == "{") ++braces;
        if (tokens[j].text == "}" && --braces == 0) {
          body_end = j;
          break;
        }
      }
    } else {
      for (std::size_t j = close + 1; j < tokens.size(); ++j) {
        if (tokens[j].text == ";") {
          body_end = j;
          break;
        }
      }
    }
    for (std::size_t j = close + 1; j < body_end; ++j) {
      if (tokens[j].kind == Token::Kind::kIdentifier && is_output_sink(tokens[j].text)) {
        report(out, file, tokens[i].line, tokens[i].col, "det-unordered-output",
               "iterating an unordered container into an output path ('" + tokens[j].text +
                   "') — hash-map order is not part of the determinism contract; copy into "
                   "a sorted container first");
        break;
      }
    }
  }
}

// ---- det-raw-thread ------------------------------------------------------

// Raw threading primitives outside the sanctioned concurrency home. All
// parallelism must flow through sim::ParallelRunner (trial/point fan-out),
// which is deterministic by construction, while an ad-hoc
// std::thread/std::async invites exactly the thread-timing dependence the
// twin-run tests exist to rule out.
// std::thread::hardware_concurrency() is a pure query and stays legal.
void check_det_raw_thread(const SourceFile& file, std::vector<Diagnostic>& out) {
  if (path_contains(file.path, "sim/parallel.")) return;
  const auto& tokens = file.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdentifier || tokens[i].text != "std") continue;
    if (tokens[i + 1].text != "::") continue;
    const std::string& name = tokens[i + 2].text;
    if (name != "thread" && name != "jthread" && name != "async") continue;
    if (name == "thread" && i + 4 < tokens.size() && tokens[i + 3].text == "::" &&
        tokens[i + 4].text == "hardware_concurrency") {
      continue;
    }
    report(out, file, tokens[i].line, tokens[i].col, "det-raw-thread",
           "raw std::" + name +
               " outside src/sim/parallel* — use sim::ParallelRunner so execution "
               "stays deterministic at any worker count");
  }
}

// ---- svc-raw-socket ------------------------------------------------------

// Raw socket syscalls outside the sanctioned socket home. All connection
// plumbing must flow through svc::Socket and the helpers in src/svc/ — one
// place owns fd lifetimes, non-blocking setup, and EINTR handling, and the
// rest of the tree talks sessions and byte buffers. Member calls like
// client.connect(...) are legal: the rule targets the bare syscall shape
// (`socket(`, `::bind(`, ...), not methods that happen to share a name.
void check_svc_raw_socket(const SourceFile& file, std::vector<Diagnostic>& out) {
  if (path_contains(file.path, "src/svc/")) return;
  const auto& tokens = file.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdentifier) continue;
    const std::string& name = tokens[i].text;
    if (name != "socket" && name != "bind" && name != "listen" && name != "accept" &&
        name != "connect") {
      continue;
    }
    if (tokens[i + 1].text != "(") continue;
    if (i > 0) {
      const std::string& before = tokens[i - 1].text;
      if (before == "." || before == "->") continue;  // member call on an object
      if (before == "::" && i > 1 && tokens[i - 2].text == "std") continue;  // std::bind
    }
    report(out, file, tokens[i].line, tokens[i].col, "svc-raw-socket",
           "raw " + name +
               "() outside src/svc/ — route connections through svc::Socket "
               "(src/svc/socket.hpp) so fd lifetimes and non-blocking setup "
               "live in one place");
  }
}

// ---- svc-raw-fork --------------------------------------------------------

// Raw process-control syscalls anywhere. The campaign service computes
// in-process, so no scanned file has a reason to spawn or reap children;
// code that must — the E2E test exec'ing the real binaries — says why in an
// allow-file. Same bare-call shape as svc-raw-socket: member calls like
// pool.fork_thing(...) are legal.
void check_svc_raw_fork(const SourceFile& file, std::vector<Diagnostic>& out) {
  const auto& tokens = file.tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdentifier) continue;
    const std::string& name = tokens[i].text;
    if (name != "fork" && name != "vfork" && name != "execv" && name != "execvp" &&
        name != "execve" && name != "execl" && name != "execlp" && name != "execle" &&
        name != "execvpe" && name != "waitpid" && name != "wait4") {
      continue;
    }
    if (tokens[i + 1].text != "(") continue;
    if (i > 0) {
      const std::string& before = tokens[i - 1].text;
      if (before == "." || before == "->") continue;  // member call on an object
      if (before == "::" && i > 1 && tokens[i - 2].text == "std") continue;
    }
    report(out, file, tokens[i].line, tokens[i].col, "svc-raw-fork",
           "raw " + name +
               "() — nothing here spawns processes; run work in-process "
               "through sim::ParallelRunner, or justify the call with a "
               "suppression");
  }
}

// ---- det-g-format --------------------------------------------------------

void check_det_g_format(const SourceFile& file, std::vector<Diagnostic>& out) {
  const bool is_result_store = path_ends_with(file.path, "exp/result_store.cpp");
  for (const Token& token : file.tokens) {
    if (token.kind != Token::Kind::kString) continue;
    const std::string& text = token.text;
    for (std::size_t i = 0; i + 1 < text.size(); ++i) {
      if (text[i] != '%') continue;
      if (text[i + 1] == '%') {
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      auto in = [&](const char* set) {
        return j < text.size() && std::strchr(set, text[j]) != nullptr;
      };
      while (in("-+ #0'")) ++j;
      while (in("0123456789*")) ++j;
      if (j < text.size() && text[j] == '.') {
        ++j;
        while (in("0123456789*")) ++j;
      }
      while (in("hlLqjzt")) ++j;
      if (j < text.size() && (text[j] == 'g' || text[j] == 'G')) {
        const std::string spec = text.substr(i, j - i + 1);
        // Built in two pieces so this file does not flag itself.
        static const std::string kPinnedSpec = std::string{"%.17"} + 'g';
        if (is_result_store && spec == kPinnedSpec) {
          i = j;
          continue;
        }
        report(out, file, token.line, token.col, "det-g-format",
               "'" + spec + "' float formatting — shortest-round-trip output belongs only " +
                   "to exp::result_store's pinned 17-digit format; use a fixed precision " +
                   "or exp::json_append_double");
        i = j;
      }
    }
  }
}

// ---- unit-dbm-mw-mix -----------------------------------------------------

enum class UnitClass { kNone, kLogLevel, kLinearPower };

[[nodiscard]] UnitClass classify_unit(const std::string& ident) {
  const std::string low = lower(ident);
  if (low.find("dbm") != std::string::npos) return UnitClass::kLogLevel;
  if (low == "mw" || low.find("milliwatt") != std::string::npos) return UnitClass::kLinearPower;
  if (low.size() >= 3 && low.compare(low.size() - 3, 3, "_mw") == 0) return UnitClass::kLinearPower;
  if (low.compare(0, 3, "mw_") == 0) return UnitClass::kLinearPower;
  if (low.find("_mw_") != std::string::npos) return UnitClass::kLinearPower;
  return UnitClass::kNone;
}

[[nodiscard]] bool is_unit_conversion(const std::string& ident) {
  return ident == "to_milliwatts" || ident == "to_dbm" || ident == "to_db";
}

/// Tokens an operand chain may span; anything else ends the scan.
[[nodiscard]] bool chain_token(const Token& token) {
  if (token.kind == Token::Kind::kIdentifier || token.kind == Token::Kind::kNumber) return true;
  const std::string& t = token.text;
  return t == "." || t == "->" || t == "::" || t == "[" || t == "]" || t == "(" || t == ")";
}

struct OperandScan {
  UnitClass unit = UnitClass::kNone;
  bool conversion = false;  ///< a to_milliwatts/to_dbm call appears in the chain
};

[[nodiscard]] OperandScan scan_left(const std::vector<Token>& tokens, std::size_t op) {
  OperandScan result;
  int depth = 0;
  for (std::size_t j = op; j-- > 0;) {
    if (!chain_token(tokens[j])) break;
    if (tokens[j].text == ")") ++depth;
    if (tokens[j].text == "(" && --depth < 0) break;
    if (tokens[j].kind == Token::Kind::kIdentifier) {
      if (is_unit_conversion(tokens[j].text)) result.conversion = true;
      if (result.unit == UnitClass::kNone) result.unit = classify_unit(tokens[j].text);
    }
  }
  return result;
}

[[nodiscard]] OperandScan scan_right(const std::vector<Token>& tokens, std::size_t op) {
  OperandScan result;
  int depth = 0;
  for (std::size_t j = op + 1; j < tokens.size(); ++j) {
    if (!chain_token(tokens[j])) break;
    if (tokens[j].text == "(") ++depth;
    if (tokens[j].text == ")" && --depth < 0) break;
    if (tokens[j].kind == Token::Kind::kIdentifier) {
      if (is_unit_conversion(tokens[j].text)) result.conversion = true;
      if (result.unit == UnitClass::kNone) result.unit = classify_unit(tokens[j].text);
    }
  }
  return result;
}

void check_unit_dbm_mw_mix(const SourceFile& file, std::vector<Diagnostic>& out) {
  const auto& tokens = file.tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& t = tokens[i].text;
    if (tokens[i].kind != Token::Kind::kPunct || (t != "+" && t != "-" && t != "+=" && t != "-="))
      continue;
    const OperandScan left = scan_left(tokens, i);
    const OperandScan right = scan_right(tokens, i);
    if (left.conversion || right.conversion) continue;
    const bool mixed = (left.unit == UnitClass::kLogLevel && right.unit == UnitClass::kLinearPower) ||
                       (left.unit == UnitClass::kLinearPower && right.unit == UnitClass::kLogLevel);
    if (mixed) {
      report(out, file, tokens[i].line, tokens[i].col, "unit-dbm-mw-mix",
             "'" + t + "' between a dBm-named and a mW-named quantity — log levels and " +
                 "linear power never add directly; convert through phy::to_milliwatts / " +
                 "phy::to_dbm");
    }
  }
}

// ---- unit-naked-cca ------------------------------------------------------

void check_unit_naked_cca(const SourceFile& file, std::vector<Diagnostic>& out) {
  if (path_ends_with(file.path, "dcn/config.hpp") || path_ends_with(file.path, "mac/cca.hpp"))
    return;
  const auto& tokens = file.tokens;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kNumber) continue;
    if (tokens[i - 1].text != "-") continue;
    const double value = std::strtod(tokens[i].text.c_str(), nullptr);
    if (value != 77.0 && value != 91.0) continue;
    // Context: a cca/threshold mention within three lines either side.
    bool cca_context = false;
    for (const Token& other : tokens) {
      if (other.line < tokens[i].line - 3) continue;
      if (other.line > tokens[i].line + 3) break;
      if (other.kind != Token::Kind::kIdentifier && other.kind != Token::Kind::kString) continue;
      const std::string low = lower(other.text);
      if (low.find("cca") != std::string::npos || low.find("threshold") != std::string::npos) {
        cca_context = true;
        break;
      }
    }
    if (!cca_context) continue;
    report(out, file, tokens[i - 1].line, tokens[i - 1].col, "unit-naked-cca",
           "naked CCA-threshold literal -" + tokens[i].text +
               " — use mac::kZigbeeDefaultCcaThreshold or the dcn::DcnConfig fields so a "
               "recalibration happens in one place");
  }
}

// ---- hygiene -------------------------------------------------------------

void check_hyg_pragma_once(const SourceFile& file, std::vector<Diagnostic>& out) {
  if (!file.is_header()) return;
  const auto& tokens = file.tokens;
  const bool ok = tokens.size() >= 3 && tokens[0].text == "#" && tokens[1].text == "pragma" &&
                  tokens[2].text == "once";
  if (!ok) {
    report(out, file, 1, 1, "hyg-pragma-once",
           "header's first directive is not #pragma once — this repo standardizes on "
           "pragma guards");
  }
}

void check_hyg_using_namespace_std(const SourceFile& file, std::vector<Diagnostic>& out) {
  if (!file.is_header()) return;
  const auto& tokens = file.tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].text == "using" && tokens[i + 1].text == "namespace" &&
        tokens[i + 2].text == "std") {
      report(out, file, tokens[i].line, tokens[i].col, "hyg-using-namespace-std",
             "'using namespace std' in a header leaks into every includer — qualify names "
             "instead");
    }
  }
}

void check_hyg_todo_issue(const SourceFile& file, std::vector<Diagnostic>& out) {
  for (const Comment& comment : file.comments) {
    for (const char* marker : {"TODO", "FIXME"}) {
      const std::string m{marker};
      for (std::size_t pos = comment.text.find(m); pos != std::string::npos;
           pos = comment.text.find(m, pos + m.size())) {
        // Word boundary on the left.
        if (pos > 0) {
          const char before = comment.text[pos - 1];
          if (std::isalnum(static_cast<unsigned char>(before)) != 0 || before == '_') continue;
        }
        const std::size_t after_pos = pos + m.size();
        const char after = after_pos < comment.text.size() ? comment.text[after_pos] : '\0';
        if (after == '(') {
          // Compliant when the tag is non-empty: TODO(#42), TODO(name).
          const std::size_t close = comment.text.find(')', after_pos);
          if (close != std::string::npos && close > after_pos + 1) continue;
        } else if (after != ':' && after != ' ' && after != '\0' && after != '\n') {
          continue;  // part of a longer word or a slash-joined mention
        }
        report(out, file, comment.line, comment.col, "hyg-todo-issue",
               std::string{marker} +
                   " without an owner or issue tag — write " + marker +
                   "(#issue) or " + marker + "(name) so it can be tracked");
      }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"det-rand", "nondeterministic or stdlib RNG outside src/sim/random.*"},
      {"det-time-seed", "wall-clock time() used as a seed value"},
      {"det-unordered-output", "unordered-container iteration feeding an output path"},
      {"det-raw-thread", "raw std::thread/std::async outside the sanctioned runner"},
      {"det-g-format", "'g'-conversion float formatting outside the pinned store format"},
      {"svc-raw-socket", "raw socket/bind/listen/accept/connect calls outside src/svc/"},
      {"svc-raw-fork", "raw fork/exec*/waitpid calls anywhere"},
      {"unit-dbm-mw-mix", "+/- between dBm-named and mW-named quantities"},
      {"unit-naked-cca", "naked CCA-threshold literal outside the config headers"},
      {"hyg-pragma-once", "header missing #pragma once as its first directive"},
      {"hyg-using-namespace-std", "'using namespace std' in a header"},
      {"hyg-todo-issue", "TODO/FIXME without an owner or issue tag"},
      {"golden-regen-note", "golden campaign spec missing its regeneration command comment"},
      {"arch-layer-violation", "module include edge not permitted by the layering spec"},
      {"arch-cycle", "dependency cycle in the module include graph"},
      {"arch-missing-spec", "module on disk with no entry in tools/nomc_layers.txt"},
      {"lint-stale-suppress", "allow() directive that suppresses nothing (or names no known rule)"},
      {"lint-stale-baseline", "baseline entry that matches no finding"},
  };
  return kCatalog;
}

bool known_rule(const std::string& id) {
  for (const RuleInfo& rule : rule_catalog()) {
    if (id == rule.id) return true;
  }
  return false;
}

void run_cpp_rules(const SourceFile& file, std::vector<Diagnostic>& out) {
  check_det_rand(file, out);
  check_det_time_seed(file, out);
  check_det_unordered_output(file, out);
  check_det_raw_thread(file, out);
  check_svc_raw_socket(file, out);
  check_svc_raw_fork(file, out);
  check_det_g_format(file, out);
  check_unit_dbm_mw_mix(file, out);
  check_unit_naked_cca(file, out);
  check_hyg_pragma_once(file, out);
  check_hyg_using_namespace_std(file, out);
  check_hyg_todo_issue(file, out);
}

void run_campaign_rules(const std::string& path, const std::string& content,
                        std::vector<Diagnostic>& out) {
  if (!path_contains(path, "tests/golden/")) return;
  // The regeneration command must live in the leading '#' comment block so
  // the ctest guard (tests/golden/run_and_diff.cmake) can print it on drift.
  std::string header;
  std::size_t start = 0;
  while (start < content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string::npos) end = content.size();
    const std::string line = content.substr(start, end - start);
    std::size_t first = line.find_first_not_of(" \t");
    if (first != std::string::npos && line[first] != '#') break;
    header += line;
    header += '\n';
    start = end + 1;
  }
  if (header.find("nomc-campaign run") == std::string::npos ||
      header.find("--overwrite") == std::string::npos) {
    out.push_back(Diagnostic{path, 1, 1, "golden-regen-note",
                             "golden spec header comment must state its regeneration command "
                             "(`nomc-campaign run <spec> --overwrite ...`) — run_and_diff.cmake "
                             "prints it when the store drifts"});
  }
}

}  // namespace nomc::lint
