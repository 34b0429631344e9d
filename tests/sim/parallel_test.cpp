#include "sim/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/random.hpp"

namespace nomc::sim {
namespace {

/// A deterministic, seed-dependent stand-in for one simulation trial: the
/// result depends only on the index, never on scheduling.
double fake_trial(int index) {
  RandomStream rng{static_cast<std::uint64_t>(index) + 1, 0};
  double accumulated = 0.0;
  for (int i = 0; i < 1000; ++i) accumulated += rng.uniform();
  return accumulated;
}

TEST(ParallelRunner, ResolveJobs) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
}

TEST(ParallelRunner, MapReturnsIndexOrderedResults) {
  ParallelRunner runner{4};
  const auto results = runner.map(32, [](int i) { return i * i; });
  ASSERT_EQ(results.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
}

TEST(ParallelRunner, MapHandlesZeroAndSingleCounts) {
  ParallelRunner runner{4};
  EXPECT_TRUE(runner.map(0, [](int i) { return i; }).empty());
  const auto one = runner.map(1, [](int i) { return i + 41; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41);
}

TEST(ParallelRunner, ForEachVisitsEveryIndexOnce) {
  ParallelRunner runner{8};
  std::vector<std::atomic<int>> visits(100);
  runner.for_each(100, [&](int i) { visits[static_cast<std::size_t>(i)]++; });
  for (const auto& count : visits) EXPECT_EQ(count.load(), 1);
}

/// The determinism contract: identical results regardless of the job count.
TEST(ParallelRunner, BitIdenticalAcrossJobCounts) {
  constexpr int kTrials = 24;
  std::vector<double> serial;
  for (const int jobs : {1, 2, 8}) {
    ParallelRunner runner{jobs};
    const auto results = runner.map(kTrials, fake_trial);
    ASSERT_EQ(results.size(), static_cast<std::size_t>(kTrials));
    if (jobs == 1) {
      serial = results;
      continue;
    }
    for (int i = 0; i < kTrials; ++i) {
      // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the contract is bit identity.
      EXPECT_EQ(results[static_cast<std::size_t>(i)], serial[static_cast<std::size_t>(i)])
          << "trial " << i << " diverged at jobs=" << jobs;
    }
  }
}

/// An index-ordered reduction over map() output must not depend on jobs
/// either — this is exactly how exp::merge_trials averages a point's trials.
TEST(ParallelRunner, OrderedReductionIsStable) {
  auto reduce = [](int jobs) {
    ParallelRunner runner{jobs};
    const auto results = runner.map(16, fake_trial);
    return std::accumulate(results.begin(), results.end(), 0.0);
  };
  const double serial = reduce(1);
  EXPECT_EQ(reduce(2), serial);
  EXPECT_EQ(reduce(8), serial);
}

TEST(ParallelRunner, ReusableAcrossBatches) {
  ParallelRunner runner{4};
  for (int round = 0; round < 50; ++round) {
    const auto results = runner.map(8, [round](int i) { return round * 100 + i; });
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(results[static_cast<std::size_t>(i)], round * 100 + i);
    }
  }
}

TEST(ParallelRunner, PropagatesExceptions) {
  ParallelRunner runner{4};
  EXPECT_THROW(runner.for_each(16,
                               [](int i) {
                                 if (i == 7) throw std::runtime_error{"trial failed"};
                               }),
               std::runtime_error);
  // The pool must survive a failed batch.
  const auto results = runner.map(4, [](int i) { return i; });
  EXPECT_EQ(results, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace nomc::sim
