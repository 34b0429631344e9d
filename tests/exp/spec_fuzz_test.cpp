// Fixed-seed mutation fuzz of the campaign spec parser. Seeds are every
// example campaign (examples/campaigns/*.campaign, each of which must
// parse), put through bit flips, byte inserts and deletes, truncations,
// line splices, injected non-finite or huge number tokens and injected
// indexed keys (every indexed row of the key table).
// Every input must come back as a SpecError or as a spec whose every
// reachable PointParams double is finite; an accepted spec's canonical text
// must parse back to the same hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "exp/spec.hpp"

namespace nomc::exp {
namespace {

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return "";
  std::string content;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) content.append(buffer, got);
  std::fclose(file);
  return content;
}

/// Every example campaign, in sorted path order.
std::vector<std::string> example_paths() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator{NOMC_CAMPAIGNS_DIR}) {
    if (entry.path().extension() == ".campaign") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

const std::vector<std::string>& seeds() {
  static const std::vector<std::string> texts = [] {
    std::vector<std::string> out;
    for (const std::string& path : example_paths()) out.push_back(read_file(path));
    return out;
  }();
  return texts;
}

// Fixed-seed generator for fuzz *inputs*, not simulation randomness —
// replays stay reproducible.
// nomc-lint: allow(det-rand)
using Rng = std::mt19937_64;

std::size_t pick(Rng& rng, std::size_t n) { return n == 0 ? 0 : rng() % n; }

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += '\n';
    out += lines[i];
  }
  return out;
}

/// Replace one value token (after a line's '=') with a hostile number, or a
/// line's key with an indexed key.
std::string inject_number(Rng& rng, const std::string& text) {
  static const std::vector<std::string> kTokens = {
      "nan",   "-nan",     "NaN",      "nan(1)", "inf",  "-inf",   "INF",
      "infinity", "1e999", "-1e999",   "1e308",  "1e-400", "4.9e-324", "0x1p1024",
      "99999999999999999999", "-0"};
  // Every indexed key of the key table, well-formed and not: each replaces a
  // line's key (the last word before '='), so both a bad index and an index
  // some grid point lacks reach the parser.
  static const std::vector<std::string> kKeys = [] {
    std::vector<std::string> keys;
    for (const SpecKey& row : spec_keys()) {
      if (!row.indexed()) continue;
      for (const char* index : {"", "x", "-1", "2.1", "99999999999999999999", "0", "4", "5",
                                "255", "256", "01"}) {
        keys.push_back(std::string{row.name} + "." + index);
      }
    }
    return keys;
  }();
  std::vector<std::string> lines = lines_of(text);
  const std::size_t li = pick(rng, lines.size());
  std::string& line = lines[li];
  const std::size_t eq = line.find('=');
  if (eq != std::string::npos && rng() % 4 == 0) {
    std::size_t end = eq;
    while (end > 0 && (line[end - 1] == ' ' || line[end - 1] == '\t')) --end;
    std::size_t start = end;
    while (start > 0 && line[start - 1] != ' ' && line[start - 1] != '\t') --start;
    line.replace(start, end - start, kKeys[pick(rng, kKeys.size())]);
    return join(lines);
  }
  const std::string& token = kTokens[pick(rng, kTokens.size())];
  if (eq == std::string::npos) {
    line.insert(pick(rng, line.size() + 1), token);
    return join(lines);
  }
  // Token boundaries after '=': whitespace and the lockstep '/'.
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = eq + 1;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t' || line[i] == '/')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' && line[i] != '/') ++i;
    if (i > start) spans.emplace_back(start, i - start);
  }
  if (spans.empty()) {
    line += " " + token;
  } else {
    const auto [start, length] = spans[pick(rng, spans.size())];
    line.replace(start, length, token);
  }
  return join(lines);
}

std::string mutate(Rng& rng, std::string text) {
  switch (rng() % 6) {
    case 0:  // bit flips
      for (int flips = 1 + static_cast<int>(rng() % 4); flips > 0 && !text.empty(); --flips) {
        text[pick(rng, text.size())] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    case 1: {  // byte inserts: grammar bytes, digits, NUL, high bytes
      static const std::string kBytes =
          std::string{"=/#\n\r\t .-+e0123456789x"} + '\0' + "\x7f\x80\xff";
      for (int inserts = 1 + static_cast<int>(rng() % 4); inserts > 0; --inserts) {
        text.insert(pick(rng, text.size() + 1), 1, kBytes[pick(rng, kBytes.size())]);
      }
      break;
    }
    case 2:  // byte deletes
      for (int deletes = 1 + static_cast<int>(rng() % 4); deletes > 0 && !text.empty();
           --deletes) {
        text.erase(pick(rng, text.size()), 1 + pick(rng, 3));
      }
      break;
    case 3:  // truncation
      text.resize(pick(rng, text.size() + 1));
      break;
    case 4: {  // line splice: a line of any seed, inserted at a line boundary
      std::vector<std::string> lines = lines_of(text);
      const std::vector<std::string> donor = lines_of(seeds()[pick(rng, seeds().size())]);
      const std::string& line = donor[pick(rng, donor.size())];
      const auto at = static_cast<std::ptrdiff_t>(pick(rng, lines.size() + 1));
      lines.insert(lines.begin() + at, line);
      if (rng() % 2 == 0 && lines.size() > 1) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(pick(rng, lines.size())));
      }
      text = join(lines);
      break;
    }
    default:
      text = inject_number(rng, text);
      break;
  }
  return text;
}

bool finite(double value) { return std::isfinite(value); }
bool finite(const std::optional<double>& value) { return !value || std::isfinite(*value); }
bool finite(const std::map<int, double>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](const auto& entry) { return std::isfinite(entry.second); });
}
template <typename T>
bool finite(const T&) {
  return true;  // strings and integers
}

/// Every numeric member any row of the key table sets is finite.
bool all_finite(const PointParams& params) {
  bool all = true;
  for (const SpecKey& row : spec_keys()) {
    std::visit([&](auto member) { all = all && finite(params.*member); }, row.slot);
  }
  return all;
}

/// Every PointParams the grid can produce is the base plus one step per
/// axis; each step is checked against the base without expanding the grid.
void expect_finite_grid(const CampaignSpec& spec, const std::string& input) {
  ASSERT_TRUE(all_finite(spec.base)) << input;
  for (const SweepAxis& axis : spec.axes) {
    for (const std::vector<std::string>& step : axis.steps) {
      PointParams params = spec.base;
      std::string message;
      for (std::size_t k = 0; k < axis.keys.size(); ++k) {
        ASSERT_TRUE(apply_param(params, axis.keys[k], step[k], message)) << message;
      }
      ASSERT_TRUE(all_finite(params)) << "sweep line " << axis.line << " of:\n" << input;
    }
  }
}

TEST(SpecFuzz, EveryExampleCampaignParses) {
  const std::vector<std::string> paths = example_paths();
  ASSERT_GE(paths.size(), 5u) << NOMC_CAMPAIGNS_DIR;
  for (const std::string& path : paths) {
    CampaignSpec spec;
    SpecError error;
    EXPECT_TRUE(load_campaign(path, spec, error)) << path << ": " << error.str();
  }
}

TEST(SpecFuzz, MutatedExampleCampaignsErrorOrParseFiniteAndRoundTrip) {
  for (const std::string& seed : seeds()) ASSERT_FALSE(seed.empty()) << NOMC_CAMPAIGNS_DIR;

  int accepted = 0;
  int rejected = 0;
  for (std::uint64_t fuzz_seed = 1; fuzz_seed <= 5; ++fuzz_seed) {
    Rng rng{fuzz_seed};
    for (int round = 0; round < 600; ++round) {
      std::string input = seeds()[pick(rng, seeds().size())];
      for (int m = 1 + static_cast<int>(rng() % 3); m > 0; --m) input = mutate(rng, input);

      CampaignSpec spec;
      SpecError error;
      if (!parse_campaign(input, spec, error)) {
        EXPECT_FALSE(error.message.empty()) << input;
        ++rejected;
        continue;
      }
      ++accepted;
      expect_finite_grid(spec, input);

      const std::string canonical = format_campaign(spec);
      CampaignSpec again;
      ASSERT_TRUE(parse_campaign(canonical, again, error))
          << error.str() << "\ncanonical:\n" << canonical << "\ninput:\n" << input;
      EXPECT_EQ(spec_hash(again), spec_hash(spec)) << input;
    }
  }
  // Both outcomes must be exercised, or the mutations are too weak (or too
  // destructive) to say anything.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace nomc::exp
