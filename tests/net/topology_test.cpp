#include "net/topology.hpp"

#include <gtest/gtest.h>

#include "phy/channel_plan.hpp"

namespace nomc::net {
namespace {

std::vector<phy::Mhz> six_channels() {
  return phy::evenly_spaced(phy::Mhz{2458.0}, phy::Mhz{3.0}, 6);
}

class RandomCases : public ::testing::TestWithParam<int> {};

TEST_P(RandomCases, AllGeneratorsRespectConfig) {
  const auto channels = six_channels();
  RandomCaseConfig config;
  sim::RandomStream rng{static_cast<std::uint64_t>(GetParam()), 0};

  for (int which = 0; which < 3; ++which) {
    sim::RandomStream stream{static_cast<std::uint64_t>(GetParam()),
                             static_cast<std::uint64_t>(which)};
    const auto specs = which == 0   ? case1_dense(channels, stream, config)
                       : which == 1 ? case2_clustered(channels, stream, config)
                                    : case3_random(channels, stream, config);
    ASSERT_EQ(specs.size(), channels.size());
    for (std::size_t n = 0; n < specs.size(); ++n) {
      EXPECT_EQ(specs[n].channel.value, channels[n].value);
      ASSERT_EQ(specs[n].links.size(),
                static_cast<std::size_t>(config.links_per_network));
      for (const LinkSpec& link : specs[n].links) {
        const double d = distance(link.sender_pos, link.receiver_pos);
        EXPECT_GE(d, 0.5 * config.link_distance_m - 1e-9);
        EXPECT_LE(d, config.link_distance_m + 1e-9);
        EXPECT_GE(link.tx_power.value, config.min_tx_power.value);
        EXPECT_LE(link.tx_power.value, config.max_tx_power.value);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCases, ::testing::Values(1, 7, 42));

TEST(RandomCases, Case1StaysInRegion) {
  RandomCaseConfig config;
  sim::RandomStream rng{5, 0};
  const auto specs = case1_dense(six_channels(), rng, config);
  for (const auto& spec : specs) {
    for (const LinkSpec& link : spec.links) {
      EXPECT_GE(link.sender_pos.x, 0.0);
      EXPECT_LE(link.sender_pos.x, config.region_m);
      EXPECT_GE(link.sender_pos.y, 0.0);
      EXPECT_LE(link.sender_pos.y, config.region_m);
    }
  }
}

TEST(RandomCases, Case2ClustersAreSeparated) {
  RandomCaseConfig config;
  config.region_m = 1.0;
  config.room_spacing_m = 10.0;
  sim::RandomStream rng{5, 0};
  const auto specs = case2_clustered(six_channels(), rng, config);
  // Senders of different rooms are far apart compared to the room size;
  // rooms sit on a 3-wide grid.
  const double d01 =
      distance(specs[0].links[0].sender_pos, specs[1].links[0].sender_pos);
  EXPECT_GT(d01, config.room_spacing_m - 2 * config.region_m);
  const double d03 =
      distance(specs[0].links[0].sender_pos, specs[3].links[0].sender_pos);
  EXPECT_GT(d03, config.room_spacing_m - 2 * config.region_m);
}

TEST(RandomCases, Case3UsesWholeField) {
  RandomCaseConfig config;
  sim::RandomStream rng{5, 0};
  const auto specs = case3_random(six_channels(), rng, config);
  double max_coord = 0.0;
  for (const auto& spec : specs) {
    for (const LinkSpec& link : spec.links) {
      max_coord = std::max({max_coord, link.sender_pos.x, link.sender_pos.y});
    }
  }
  // With 12 anchors uniform over a 25 m field, at least one lands beyond
  // half the field with overwhelming probability.
  EXPECT_GT(max_coord, config.field_m / 2.0);
}

TEST(RandomCases, FixedPowerHelper) {
  const RandomCaseConfig config = RandomCaseConfig{}.with_fixed_power(phy::Dbm{-5.0});
  EXPECT_EQ(config.min_tx_power.value, -5.0);
  EXPECT_EQ(config.max_tx_power.value, -5.0);
  sim::RandomStream rng{5, 0};
  const auto specs = case1_dense(six_channels(), rng, config);
  for (const auto& spec : specs) {
    for (const LinkSpec& link : spec.links) EXPECT_EQ(link.tx_power.value, -5.0);
  }
}

TEST(RandomCases, DeterministicPerSeed) {
  RandomCaseConfig config;
  sim::RandomStream a{9, 0};
  sim::RandomStream b{9, 0};
  const auto specs_a = case3_random(six_channels(), a, config);
  const auto specs_b = case3_random(six_channels(), b, config);
  for (std::size_t n = 0; n < specs_a.size(); ++n) {
    for (std::size_t l = 0; l < specs_a[n].links.size(); ++l) {
      EXPECT_EQ(specs_a[n].links[l].sender_pos, specs_b[n].links[l].sender_pos);
      EXPECT_EQ(specs_a[n].links[l].tx_power.value, specs_b[n].links[l].tx_power.value);
    }
  }
}

}  // namespace
}  // namespace nomc::net
