// Golden self-consistency: every record of every tests/golden store must be
// the seed-ordered mean of its own per_trial values, bit for bit. The golden
// byte-diff cannot catch per-trial arrays that are wrong but consistently
// written, because a regeneration rewrites both sides; this can.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/result_store.hpp"

namespace nomc::exp {
namespace {

/// Every golden spec, as a path without its extension, in sorted order.
std::vector<std::string> golden_stems() {
  std::vector<std::string> stems;
  for (const auto& entry : std::filesystem::directory_iterator{NOMC_GOLDEN_DIR}) {
    if (entry.path().extension() != ".campaign") continue;
    stems.push_back((entry.path().parent_path() / entry.path().stem()).string());
  }
  std::sort(stems.begin(), stems.end());
  return stems;
}

TEST(Golden, MeansAreTheSeedOrderedSumOfTheirTrials) {
  const std::vector<std::string> stems = golden_stems();
  ASSERT_GE(stems.size(), 11u) << NOMC_GOLDEN_DIR;
  for (const std::string& stem : stems) {
    SCOPED_TRACE(stem);
    StoreScan scan;
    std::string error;
    ASSERT_TRUE(scan_store(stem + ".jsonl", /*expected_hash=*/"", scan, error)) << error;
    EXPECT_FALSE(scan.truncated_tail);
    ASSERT_FALSE(scan.records.empty());
    for (const ResultRecord& record : scan.records) {
      SCOPED_TRACE("point " + std::to_string(record.point));
      // The merge's own arithmetic: sum from 0 in seed order, divide once.
      const double count = static_cast<double>(record.trials);
      double overall = 0.0;
      std::vector<double> pps(record.pps.size(), 0.0);
      for (int trial = 0; trial < record.trials; ++trial) {
        const auto t = static_cast<std::size_t>(trial);
        overall += record.trial_overall_pps[t];
        for (std::size_t n = 0; n < pps.size(); ++n) pps[n] += record.trial_pps[t][n];
      }
      EXPECT_EQ(overall / count, record.overall_pps);
      for (std::size_t n = 0; n < pps.size(); ++n) {
        EXPECT_EQ(pps[n] / count, record.pps[n]) << "network " << n;
      }
    }
  }
}

}  // namespace
}  // namespace nomc::exp
