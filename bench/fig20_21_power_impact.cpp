// Paper Figs. 20-21: impact of transmission power on DCN. Six networks at
// CFD=3 MHz (15 MHz band), DCN everywhere; the central network N0's senders
// sweep their TX power from -33 dBm to 0 dBm while every other node stays
// at full power.
//
// Expected shape:
//   * N0's throughput grows with its power (Fig. 20) in two regimes: below
//     ~-15 dBm better SINR lifts PRR; above it, the louder co-channel
//     packets let N0's CCA-Adjustors settle HIGHER thresholds (Eq. 4), which
//     unlocks more inter-channel concurrency;
//   * the other networks are not hurt by N0's power growth (Fig. 21) —
//     CFD=3 MHz tolerates the interference.
#include <cstdio>

#include "common.hpp"
#include "exp/campaign.hpp"

int main() {
  using namespace nomc;
  bench::print_header("Figs. 20-21", "DCN under asymmetric power: central network N0 sweeps "
                                     "TX power, others at 0 dBm (6 networks, CFD=3 MHz)");

  const auto channels = phy::evenly_spaced(bench::kBandStart, phy::Mhz{3.0}, 6);
  const int central = 3;  // central-frequency network ("N0" in the paper)
  bench::BandRunParams params;

  stats::TablePrinter table{{"N0 power (dBm)", "N0 (pkt/s)", "N0 PRR", "others total (pkt/s)"}};
  for (const double power : {-33.0, -22.0, -15.0, -11.0, -6.0, -3.0, 0.0}) {
    double n0 = 0.0;
    double n0_prr = 0.0;
    double others = 0.0;
    for (int trial = 0; trial < params.trials; ++trial) {
      const std::uint64_t seed = exp::trial_seed(params.seed, trial);
      sim::RandomStream placement{seed, 999};
      auto specs = net::case1_dense(channels, placement, params.topology);
      for (net::LinkSpec& link : specs[central].links) link.tx_power = phy::Dbm{power};

      net::ScenarioConfig config;
      config.seed = seed;
      net::Scenario scenario{config};
      scenario.add_networks(specs, net::Scheme::kDcn);
      scenario.run(params.warmup, params.measure);

      const auto result = scenario.network_result(central);
      n0 += result.throughput_pps;
      double prr_sum = 0.0;
      for (const auto& link : result.links) prr_sum += link.prr;
      n0_prr += prr_sum / static_cast<double>(result.links.size());
      others += scenario.overall_throughput() - result.throughput_pps;
    }
    table.add_row({stats::TablePrinter::num(power, 0), bench::pps(n0 / params.trials),
                   bench::pct(n0_prr / params.trials), bench::pps(others / params.trials)});
  }
  table.print();
  std::printf("\nPaper: N0 grows with power (PRR-limited below ~-15 dBm, CCA-relaxation-"
              "limited above); other networks are unaffected at CFD=3 MHz.\n");
  return 0;
}
