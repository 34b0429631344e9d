// Topology generators for the paper's deployments.
//
// * Case I (Fig. 22): every node inside one small interfering region.
// * Case II (Fig. 23): one tight cluster ("office room") per network,
//   rooms far apart.
// * Case III (Fig. 24): all nodes scattered uniformly over a large region,
//   sender/receiver pairs kept within radio range.
// * The Fig. 5 rig (§IV, Figs. 6-10): one victim link ringed by
//   neighbouring-channel interferer networks, optionally with co-channel
//   competitors.
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

/// The Fig. 5 rig places networks on exactly this many channels.
inline constexpr int kFig5Channels = 5;

/// The Fig. 5 rig on `channels` (kFig5Channels of them, CFD apart). Network 0
/// is the victim: one 2 m link on the middle channel. With `cochannel`, three
/// single-link networks follow on the victim's channel, 1.8 m out at 120°
/// steps (Fig. 8). Then come the interferer networks at +CFD, -CFD, +2 CFD
/// and -2 CFD, 2.2 m away on the cardinal points, `links_per_network` links
/// each, 0.5 m apart. Every link's power is drawn as the Case generators
/// draw it; the geometry draws nothing.
[[nodiscard]] std::vector<NetworkSpec> fig5_rig(std::span<const phy::Mhz> channels,
                                                sim::RandomStream& rng,
                                                const RandomCaseConfig& config, bool cochannel);

}  // namespace nomc::net
