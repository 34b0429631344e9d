// End-to-end locks for the CCA-threshold analysis of §IV (Figs. 6-10):
// relaxing the threshold against inter-channel interference is free
// throughput; relaxing past the co-channel floor is ruinous.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "phy/channel_plan.hpp"

namespace nomc {
namespace {

/// What the victim link (network 0) of the Fig. 5 rig measured.
struct VictimRun {
  double sent_pps = 0.0;
  double received_pps = 0.0;
  double prr = 1.0;
};

/// The Fig. 5 rig (net::fig5_rig) at 0 dBm: interferer networks on ±3 and
/// ±6 MHz at 2.2 m, optionally with Fig. 8's three co-channel links.
std::vector<net::NetworkSpec> rig(bool cochannel) {
  const auto channels = phy::evenly_spaced(phy::Mhz{2458.0}, phy::Mhz{3.0}, net::kFig5Channels);
  sim::RandomStream rng{0, 0};  // at a fixed power every draw returns that power
  return net::fig5_rig(channels, rng, net::RandomCaseConfig{}.with_fixed_power(phy::Dbm{0.0}),
                       cochannel);
}

VictimRun run_victim(double threshold_dbm, bool cochannel, phy::Dbm victim_power,
                     std::uint64_t seed = 3) {
  net::ScenarioConfig config;
  config.seed = seed;
  net::Scenario scenario{config};

  std::vector<net::NetworkSpec> specs = rig(cochannel);
  specs[0].links[0].tx_power = victim_power;
  scenario.add_networks(specs, net::Scheme::kFixedCca);
  constexpr int kVictim = 0;
  scenario.fixed_cca(kVictim, 0).set(phy::Dbm{threshold_dbm});

  scenario.run(sim::SimTime::seconds(1.0), sim::SimTime::seconds(5.0));
  const auto result = scenario.network_result(kVictim);
  return VictimRun{static_cast<double>(result.links[0].sender.sent) / 5.0,
                   result.links[0].throughput_pps, result.links[0].prr};
}

TEST(CcaRelaxation, RelaxingHelpsAgainstInterChannelOnly) {
  // Fig. 6: conservative -> default -> relaxed is monotone improving, and
  // PRR stays ~100 % throughout (inter-channel interference is tolerable).
  const VictimRun conservative = run_victim(-85.0, false, phy::Dbm{0.0});
  const VictimRun standard = run_victim(-77.0, false, phy::Dbm{0.0});
  const VictimRun relaxed = run_victim(-55.0, false, phy::Dbm{0.0});
  EXPECT_LT(conservative.received_pps, standard.received_pps);
  EXPECT_LT(standard.received_pps, relaxed.received_pps * 0.95);
  EXPECT_GT(conservative.prr, 0.97);
  EXPECT_GT(standard.prr, 0.97);
  EXPECT_GT(relaxed.prr, 0.97);
  // Fully relaxed, the link reaches its isolated saturation rate.
  EXPECT_GT(relaxed.received_pps, 180.0);
}

TEST(CcaRelaxation, OverRelaxingIntoCoChannelCollapsesPrr) {
  // Fig. 8: with co-channel competitors (~ -47 dBm at the victim sender),
  // a threshold above their RSS lets the victim transmit over them — sent
  // soars, PRR collapses.
  constexpr double kSafe = -55.0;
  constexpr double kReckless = -30.0;
  // The paper's "Min RSS": the weakest co-channel link as the victim sender
  // hears it lies between the two thresholds.
  net::Scenario probe;
  const std::vector<net::NetworkSpec> specs = rig(/*cochannel=*/true);
  probe.add_networks(specs, net::Scheme::kFixedCca);
  double min_rss = 0.0;
  int cochannel = 0;
  for (int n = 1; n < probe.network_count(); ++n) {
    if (probe.network_channel(n).value != probe.network_channel(0).value) continue;
    ++cochannel;
    phy::Frame frame;
    frame.id = probe.medium().allocate_frame_id();
    frame.src = probe.sender_radio(n, 0).node();
    frame.channel = probe.network_channel(n);
    frame.tx_power = specs[static_cast<std::size_t>(n)].links[0].tx_power;
    min_rss = std::min(min_rss, probe.medium().rss(frame, probe.sender_radio(0, 0).node()).value);
  }
  ASSERT_EQ(cochannel, 3);
  EXPECT_GT(min_rss, kSafe) << "min co-channel RSS at the victim sender (dBm)";
  EXPECT_LT(min_rss, kReckless) << "min co-channel RSS at the victim sender (dBm)";

  const VictimRun safe = run_victim(kSafe, true, phy::Dbm{0.0});
  const VictimRun reckless = run_victim(kReckless, true, phy::Dbm{0.0});
  EXPECT_GT(reckless.sent_pps, safe.sent_pps * 1.3);
  EXPECT_LT(reckless.prr, 0.75);
  EXPECT_GT(safe.prr, 0.80);
}

TEST(CcaRelaxation, WeakLinkStillGainsButPrrSuffers) {
  // Figs. 9-10: a -22 dBm victim against 0 dBm interferers still gains from
  // relaxation with PRR above ~80 %; at -33 dBm the PRR degrades badly.
  const VictimRun weak = run_victim(-55.0, false, phy::Dbm{-22.0});
  EXPECT_GT(weak.prr, 0.80);
  const VictimRun very_weak = run_victim(-55.0, false, phy::Dbm{-33.0});
  EXPECT_LT(very_weak.prr, 0.60);
  // Relaxation still beats the conservative setting even at -33 dBm.
  const VictimRun very_weak_conservative = run_victim(-85.0, false, phy::Dbm{-33.0});
  EXPECT_GT(very_weak.received_pps, very_weak_conservative.received_pps);
}

TEST(CcaRelaxation, ThresholdBelowNoiseFloorDeadlocks) {
  // A threshold under the noise floor reads busy forever: zero throughput.
  // (This is why DcnConfig::min_threshold clamps above the floor.)
  const VictimRun dead = run_victim(-100.0, false, phy::Dbm{0.0});
  EXPECT_EQ(dead.sent_pps, 0.0);
}

}  // namespace
}  // namespace nomc
