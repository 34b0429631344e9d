#include "net/topology.hpp"

#include <cassert>
#include <cmath>

namespace nomc::net {
namespace {

phy::Dbm random_power(sim::RandomStream& rng, const RandomCaseConfig& config) {
  return phy::Dbm{rng.uniform(config.min_tx_power.value, config.max_tx_power.value)};
}

/// A sender/receiver pair with the sender at `anchor` and the receiver a
/// bounded random offset away (room layouts keep links short; the paper's
/// links are bench-scale).
LinkSpec link_near(phy::Vec2 anchor, double max_link_m, sim::RandomStream& rng,
                   const RandomCaseConfig& config) {
  const double angle = rng.uniform(0.0, 6.283185307179586);
  const double d = rng.uniform(0.5 * max_link_m, max_link_m);
  LinkSpec link;
  link.sender_pos = anchor;
  link.receiver_pos = {anchor.x + d * std::cos(angle), anchor.y + d * std::sin(angle)};
  link.tx_power = random_power(rng, config);
  return link;
}

}  // namespace

std::vector<NetworkSpec> case1_dense(std::span<const phy::Mhz> channels,
                                     sim::RandomStream& rng, const RandomCaseConfig& config) {
  std::vector<NetworkSpec> specs;
  specs.reserve(channels.size());
  for (const phy::Mhz channel : channels) {
    NetworkSpec spec;
    spec.channel = channel;
    for (int l = 0; l < config.links_per_network; ++l) {
      const phy::Vec2 anchor{rng.uniform(0.0, config.region_m), rng.uniform(0.0, config.region_m)};
      spec.links.push_back(link_near(anchor, config.link_distance_m, rng, config));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<NetworkSpec> case2_clustered(std::span<const phy::Mhz> channels,
                                         sim::RandomStream& rng,
                                         const RandomCaseConfig& config) {
  std::vector<NetworkSpec> specs;
  specs.reserve(channels.size());
  for (std::size_t n = 0; n < channels.size(); ++n) {
    NetworkSpec spec;
    spec.channel = channels[n];
    // Rooms on a floor-plan grid (up to 3 per corridor), one network each.
    const phy::Vec2 room{config.room_spacing_m * static_cast<double>(n % 3),
                         config.room_spacing_m * static_cast<double>(n / 3)};
    for (int l = 0; l < config.links_per_network; ++l) {
      const phy::Vec2 anchor{room.x + rng.uniform(0.0, config.region_m),
                             room.y + rng.uniform(0.0, config.region_m)};
      spec.links.push_back(link_near(anchor, config.link_distance_m, rng, config));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<NetworkSpec> case3_random(std::span<const phy::Mhz> channels,
                                      sim::RandomStream& rng, const RandomCaseConfig& config) {
  std::vector<NetworkSpec> specs;
  specs.reserve(channels.size());
  for (const phy::Mhz channel : channels) {
    NetworkSpec spec;
    spec.channel = channel;
    for (int l = 0; l < config.links_per_network; ++l) {
      const phy::Vec2 anchor{rng.uniform(0.0, config.field_m), rng.uniform(0.0, config.field_m)};
      spec.links.push_back(link_near(anchor, config.link_distance_m, rng, config));
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::vector<NetworkSpec> fig5_rig(std::span<const phy::Mhz> channels, sim::RandomStream& rng,
                                  const RandomCaseConfig& config, bool cochannel) {
  assert(channels.size() == static_cast<std::size_t>(kFig5Channels));
  const auto network = [&](std::size_t channel) {
    NetworkSpec spec;
    spec.channel = channels[channel];
    return spec;
  };
  const auto link = [&](phy::Vec2 sender) {
    LinkSpec spec;
    spec.sender_pos = sender;
    spec.receiver_pos = {sender.x, sender.y + 2.0};
    spec.tx_power = random_power(rng, config);
    return spec;
  };
  std::vector<NetworkSpec> specs;
  specs.push_back(network(2));
  specs.back().links.push_back(link({0.0, 0.0}));
  for (int i = 1; cochannel && i <= 3; ++i) {
    const double angle = 2.0944 * i;  // 120 degrees apart
    specs.push_back(network(2));
    specs.back().links.push_back(link({1.8 * std::cos(angle), 1.8 * std::sin(angle)}));
  }
  const struct {
    std::size_t channel;
    phy::Vec2 at;
  } interferers[] = {{3, {2.2, 0.0}}, {1, {-2.2, 0.0}}, {4, {0.0, 2.2}}, {0, {0.0, -2.2}}};
  for (const auto& it : interferers) {
    specs.push_back(network(it.channel));
    for (int l = 0; l < config.links_per_network; ++l) {
      specs.back().links.push_back(link({it.at.x + 0.5 * l, it.at.y}));
    }
  }
  return specs;
}

}  // namespace nomc::net
