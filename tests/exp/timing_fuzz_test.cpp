// Fixed-seed mutation fuzz of the ".timing" sidecar rewrite on resume. A real
// sidecar from a finished campaign is put through bit flips, truncations,
// line splices, line duplications and swaps, and hostile "point" values
// (1e300, -1, 0.5, nan, ...), then the campaign resumes beside its store —
// intact, or with its last record torn off so one point is recomputed. The
// sidecar is best-effort data, so every mutant must resume cleanly, and the
// rebuilt sidecar may only hold verbatim lines that parse and name a
// completed point exactly once: the surviving old lines (each the first line
// for its point) in their original order, then the recomputed points' lines.
// The store bytes never change.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"

namespace nomc::exp {
namespace {

// 4 one-trial points on short windows: a resume that recomputes one is cheap.
constexpr const char* kSpecText =
    "name = timing_fuzz\n"
    "topology = dense\n"
    "power = 0\n"
    "channels = 2\n"
    "warmup = 0.1\n"
    "measure = 0.2\n"
    "trials = 1\n"
    "sweep cfd = 3 5\n"
    "sweep scheme = fixed dcn\n";
constexpr int kPoints = 4;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nomc_timing_fuzz_" + std::to_string(::getpid()) + "_" + name;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), file) == content.size();
  std::fclose(file);
  return ok;
}

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string out;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) out.append(buffer, got);
  std::fclose(file);
  return out;
}

// Fixed-seed generator for fuzz *inputs*, not simulation randomness —
// replays stay reproducible.
// nomc-lint: allow(det-rand)
using Rng = std::mt19937_64;

std::size_t pick(Rng& rng, std::size_t n) { return n == 0 ? 0 : rng() % n; }

/// Lines with their newline; a torn tail is the last element, unterminated.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start + 1));
    start = end + 1;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

/// Replace one line's "point" value with a hostile token: out of int range,
/// negative, fractional, non-finite, or off the grid.
std::string inject_point(Rng& rng, const std::string& text) {
  const char* const tokens[] = {"1e300", "-1", "0.5", "nan", "-nan", "inf", "1.9", "-1e10", "4"};
  const std::string key = "\"point\":";
  std::vector<std::size_t> starts;
  for (std::size_t at = text.find(key); at != std::string::npos; at = text.find(key, at + 1)) {
    starts.push_back(at + key.size());
  }
  if (starts.empty()) return text;
  const std::size_t at = starts[pick(rng, starts.size())];
  std::size_t end = at;
  while (end < text.size() && text[end] != ',' && text[end] != '}' && text[end] != '\n') ++end;
  return text.substr(0, at) + tokens[pick(rng, std::size(tokens))] + text.substr(end);
}

std::string mutate(Rng& rng, const std::string& seed) {
  std::string text = seed;
  const int rounds = 1 + static_cast<int>(pick(rng, 3));
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::string> lines = lines_of(text);
    switch (pick(rng, 6)) {
      case 0: {  // flip one bit
        if (text.empty()) break;
        text[pick(rng, text.size())] ^= static_cast<char>(1u << pick(rng, 8));
        break;
      }
      case 1: {  // truncate
        text.resize(pick(rng, text.size() + 1));
        break;
      }
      case 2: {  // splice: the head of one line onto the tail of another
        if (lines.empty()) break;
        const std::size_t i = pick(rng, lines.size());
        const std::string& donor = lines[pick(rng, lines.size())];
        lines[i] = lines[i].substr(0, pick(rng, lines[i].size() + 1)) +
                   donor.substr(pick(rng, donor.size() + 1));
        text = join(lines);
        break;
      }
      case 3: {  // duplicate a whole line somewhere
        if (lines.empty()) break;
        const std::string copy = lines[pick(rng, lines.size())];
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(rng, lines.size() + 1)),
                     copy);
        text = join(lines);
        break;
      }
      case 4: {  // swap two lines
        if (lines.size() < 2) break;
        std::swap(lines[pick(rng, lines.size())], lines[pick(rng, lines.size())]);
        text = join(lines);
        break;
      }
      default:
        text = inject_point(rng, text);
        break;
    }
  }
  return text;
}

/// The point a sidecar line names, when it parses and names a grid point.
bool grid_point(const std::string& line, int& point) {
  JsonValue parsed;
  std::string error;
  if (!parse_json(line, parsed, error)) return false;
  const JsonValue* value = parsed.find("point");
  if (value == nullptr || value->type != JsonValue::Type::kNumber) return false;
  if (!(value->number >= 0.0 && value->number < kPoints)) return false;
  if (value->number != std::floor(value->number)) return false;
  point = static_cast<int>(value->number);
  return true;
}

TEST(TimingFuzz, MutatedSidecarResumesToUniqueOrderedLinesAndUnchangedStore) {
  CampaignSpec spec;
  SpecError spec_error;
  ASSERT_TRUE(parse_campaign(kSpecText, spec, spec_error)) << spec_error.str();
  const std::string path = temp_path("store.jsonl");
  const std::string sidecar = path + ".timing";

  CampaignOptions options;
  options.quiet = true;
  options.mode = CampaignOptions::Mode::kOverwrite;
  CampaignStats stats;
  std::string error;
  ASSERT_TRUE(run_campaign(spec, path, options, &stats, error)) << error;
  ASSERT_EQ(stats.computed, kPoints);
  const std::string store = read_file(path);
  const std::string seed_sidecar = read_file(sidecar);
  ASSERT_EQ(lines_of(seed_sidecar).size(), static_cast<std::size_t>(kPoints));
  // The store minus its last record: that resume recomputes point kPoints-1.
  const std::string short_store = store.substr(0, store.rfind('\n', store.size() - 2) + 1);

  options.mode = CampaignOptions::Mode::kResume;
  Rng rng{20261017u};
  for (int iteration = 0; iteration < 600; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    const bool recompute = iteration % 30 == 0;
    const std::string mutant = mutate(rng, seed_sidecar);
    ASSERT_TRUE(write_file(path, recompute ? short_store : store));
    ASSERT_TRUE(write_file(sidecar, mutant));
    std::string context = "\nmutant:\n" + mutant;
    ASSERT_TRUE(run_campaign(spec, path, options, &stats, error)) << error << context;
    ASSERT_EQ(stats.computed, recompute ? 1 : 0);
    ASSERT_EQ(read_file(path), store);

    const std::string rebuilt = read_file(sidecar);
    context += "rebuilt:\n" + rebuilt;
    const std::vector<std::string> mutant_lines = lines_of(mutant);
    std::set<int> named;
    std::size_t next_old = 0;  // the kept old lines are a subsequence of the mutant's
    bool in_new_lines = false;
    for (const std::string& line : lines_of(rebuilt)) {
      ASSERT_EQ(line.back(), '\n') << "torn line" << context;
      int point = -1;
      ASSERT_TRUE(grid_point(line, point)) << "not a grid point: " << line << context;
      ASSERT_TRUE(named.insert(point).second) << "point " << point << " named twice" << context;
      if (recompute && point == kPoints - 1) {
        in_new_lines = true;  // the recomputed point's fresh line comes last
        continue;
      }
      ASSERT_FALSE(in_new_lines) << "old line after the recomputed one" << context;
      // Verbatim, in the mutant's order, and the first whole line naming its point.
      while (next_old < mutant_lines.size() && mutant_lines[next_old] != line) {
        const std::string& skipped = mutant_lines[next_old++];
        int earlier = -1;
        const bool whole = skipped.back() == '\n';
        ASSERT_FALSE(whole && grid_point(skipped, earlier) && earlier == point)
            << "a later line for point " << point << " was kept" << context;
      }
      ASSERT_LT(next_old, mutant_lines.size()) << "not a mutant line, or reordered" << context;
      ++next_old;
    }
    if (recompute) {
      EXPECT_TRUE(in_new_lines) << "no line for the recomputed point";
    }
  }
  std::remove(sidecar.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nomc::exp
