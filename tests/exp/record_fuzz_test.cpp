// Fixed-seed mutation fuzz of the store record reader. Valid v2 records (a
// hand-written one and real campaign records, per_trial included) are put
// through bit flips, truncations, splices, deleted runs, duplicated array
// elements and hostile number tokens, then read by parse_record and, as a
// store line, by scan_store. No mutant may crash the reader or trip a
// sanitizer, and every record that is accepted must be internally
// consistent: every per_network column holds one value per network, and
// per_trial holds params.trials rows of one value per network.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "sim/parallel.hpp"

namespace nomc::exp {
namespace {

constexpr const char* kHandWritten =
    R"({"v":2,"campaign":"c","spec_hash":"00000000000000aa","point":0,)"
    R"("sweep":{"cfd":"9"},"params":{"seed":1,"trials":2},)"
    R"("per_network":{"pps":[10,20],"prr":[0.5,0.25],"backoffs_per_s":[1,2],)"
    R"("drops_per_s":[3,4]},"overall_pps":30,"jain":0.9,)"
    R"("per_trial":{"overall_pps":[28,32],"pps":[[9,19],[11,21]]}})";

// Real records: a 2-network point with 3 trials, under both schemes.
constexpr const char* kSpecText =
    "name = record_fuzz\n"
    "topology = dense\n"
    "power = 0\n"
    "channels = 2\n"
    "warmup = 0.1\n"
    "measure = 0.2\n"
    "trials = 3\n"
    "sweep scheme = fixed dcn\n";

const std::vector<std::string>& seeds() {
  static const std::vector<std::string> lines = [] {
    std::vector<std::string> out = {kHandWritten};
    CampaignSpec spec;
    SpecError error;
    EXPECT_TRUE(parse_campaign(kSpecText, spec, error)) << error.str();
    sim::ParallelRunner runner{1};
    for (const SweepPoint& point : expand_grid(spec)) {
      out.push_back(format_record(spec, point, run_point(point.params, runner)));
    }
    return out;
  }();
  return lines;
}

// Fixed-seed generator for fuzz *inputs*, not simulation randomness —
// replays stay reproducible.
// nomc-lint: allow(det-rand)
using Rng = std::mt19937_64;

std::size_t pick(Rng& rng, std::size_t n) { return n == 0 ? 0 : rng() % n; }

/// Replace one number with a hostile one: negative, fractional, overflowing
/// an int or a double, infinite, or a plausible wrong count.
std::string inject_number(Rng& rng, const std::string& text) {
  const char* const tokens[] = {"0", "-1", "2147483648", "1e300", "0.5", "1e999", "inf", "3"};
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const bool digit = text[i] >= '0' && text[i] <= '9';
    const bool after = i == 0 || text[i - 1] == ':' || text[i - 1] == '[' || text[i - 1] == ',';
    if (digit && after) starts.push_back(i);
  }
  if (starts.empty()) return text;
  const std::size_t at = starts[pick(rng, starts.size())];
  const std::size_t end = text.find_first_not_of("0123456789.e+-", at);
  return text.substr(0, at) + tokens[pick(rng, std::size(tokens))] +
         (end == std::string::npos ? "" : text.substr(end));
}

std::string mutate(Rng& rng, const std::string& seed) {
  std::string text = seed;
  const int rounds = 1 + static_cast<int>(pick(rng, 3));
  for (int round = 0; round < rounds; ++round) {
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
      case 2: {  // splice: copy a run of the seed over a random position
        const std::size_t from = pick(rng, seed.size());
        const std::string run = seed.substr(from, 1 + pick(rng, 24));
        const std::size_t to = pick(rng, text.size() + 1);
        text.replace(to, pick(rng, run.size() + 1), run);
        break;
      }
      case 3: {  // delete a run
        const std::size_t from = pick(rng, text.size() + 1);
        text.erase(from, 1 + pick(rng, 16));
        break;
      }
      case 4: {  // duplicate an array element or row: "[a," -> "[a,a,"
        std::vector<std::size_t> opens;
        for (std::size_t i = 0; i < text.size(); ++i) {
          if (text[i] == '[') opens.push_back(i);
        }
        if (opens.empty()) break;
        const std::size_t open = opens[pick(rng, opens.size())];
        const std::size_t comma = text.find(',', open);
        if (comma == std::string::npos) break;
        text.insert(comma + 1, text.substr(open + 1, comma - open));
        break;
      }
      default:
        text = inject_number(rng, text);
        break;
    }
  }
  return text;
}

/// The invariants of a record parse_record accepted.
void expect_consistent(const ResultRecord& record, const std::string& line) {
  EXPECT_EQ(record.version, kStoreVersion) << line;
  EXPECT_GE(record.point, 0) << line;
  EXPECT_GE(record.trials, 1) << line;
  const auto trials = static_cast<std::size_t>(record.trials);
  EXPECT_EQ(record.trial_overall_pps.size(), trials) << line;
  ASSERT_EQ(record.trial_pps.size(), trials) << line;
  for (const std::vector<double>& row : record.trial_pps) {
    EXPECT_EQ(row.size(), record.pps.size()) << line;
  }
  for (const NetworkColumn& column : kNetworkColumns) {
    EXPECT_EQ((record.*column.values).size(), record.pps.size()) << column.name << ": " << line;
  }
}

TEST(RecordFuzz, MutatedRecordIsReadOrRefusedNeverMisread) {
  ASSERT_EQ(seeds().size(), 3u);
  const std::string store = ::testing::TempDir() + "nomc_record_fuzz.jsonl";
  Rng rng{20261019u};
  int accepted = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    const std::string& seed = seeds()[pick(rng, seeds().size())];
    const std::string mutant = mutate(rng, seed);
    ResultRecord record;
    std::string error;
    if (parse_record(mutant, record, error)) {
      ++accepted;
      expect_consistent(record, mutant);
    } else {
      EXPECT_FALSE(error.empty()) << mutant;
    }

    // The same mutant as a store's middle and its final line.
    std::FILE* file = std::fopen(store.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const std::string content = seed + "\n" + mutant + "\n" + seed + "\n" + mutant;
    ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), file), content.size());
    std::fclose(file);
    StoreScan scan;
    if (scan_store(store, "", scan, error)) {
      for (const ResultRecord& kept : scan.records) expect_consistent(kept, mutant);
    }
  }
  // The mutations are gentle enough that some mutants still parse.
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace nomc::exp
