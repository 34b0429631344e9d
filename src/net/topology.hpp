// Topology generators for the paper's deployments.
//
// * Case I (Fig. 22): every node inside one small interfering region.
// * Case II (Fig. 23): one tight cluster ("office room") per network,
//   rooms far apart.
// * Case III (Fig. 24): all nodes scattered uniformly over a large region,
//   sender/receiver pairs kept within radio range.
#pragma once

#include <span>
#include <vector>

#include "net/spec.hpp"
#include "sim/random.hpp"

namespace nomc::net {

struct RandomCaseConfig {
  int links_per_network = 2;
  double link_distance_m = 4.5;       ///< max sender→receiver separation
  double region_m = 7.0;              ///< Case I region edge / Case II room edge
  double room_spacing_m = 15.0;       ///< Case II: distance between room centers
  double field_m = 25.0;              ///< Case III field edge
  phy::Dbm min_tx_power{-22.0};       ///< per-node power drawn uniformly
  phy::Dbm max_tx_power{0.0};         ///< (paper: random within [−22, 0] dBm)

  /// Equal-power variant used by the motivation figures (§III fixes 0 dBm).
  [[nodiscard]] RandomCaseConfig with_fixed_power(phy::Dbm power) const {
    RandomCaseConfig copy = *this;
    copy.min_tx_power = power;
    copy.max_tx_power = power;
    return copy;
  }
};

[[nodiscard]] std::vector<NetworkSpec> case1_dense(std::span<const phy::Mhz> channels,
                                                   sim::RandomStream& rng,
                                                   const RandomCaseConfig& config = {});

[[nodiscard]] std::vector<NetworkSpec> case2_clustered(std::span<const phy::Mhz> channels,
                                                       sim::RandomStream& rng,
                                                       const RandomCaseConfig& config = {});

[[nodiscard]] std::vector<NetworkSpec> case3_random(std::span<const phy::Mhz> channels,
                                                    sim::RandomStream& rng,
                                                    const RandomCaseConfig& config = {});

}  // namespace nomc::net
