// Paper Table I, ablated: fairness of DCN across the six networks of the
// 15 MHz band (CFD = 3 MHz) as the CCA-Adjustor's safety margin varies
// (DESIGN.md §8) — how far below the minimum co-channel RSSI the threshold
// is parked. Table I itself is examples/campaigns/table1_fairness.campaign;
// the 2 dB row here is the default margin, so it reprints that campaign's
// overall throughput, spread and Jain index.
#include <cstdio>

#include "common.hpp"
#include "exp/campaign.hpp"
#include "stats/fairness.hpp"

int main() {
  using namespace nomc;
  bench::print_header("Table I", "Per-network throughput fairness under DCN vs the "
                                 "CCA-Adjustor safety margin (6 networks, CFD=3 MHz)");

  const auto channels = phy::evenly_spaced(bench::kBandStart, phy::Mhz{3.0}, 6);
  bench::BandRunParams params;
  params.trials = 5;

  stats::TablePrinter ablation{{"margin (dB)", "overall (pkt/s)", "spread", "Jain"}};
  for (const double margin : {0.0, 2.0, 4.0, 8.0}) {
    double overall = 0.0;
    std::vector<double> per(channels.size(), 0.0);
    for (int trial = 0; trial < params.trials; ++trial) {
      const std::uint64_t seed = exp::trial_seed(params.seed, trial);
      sim::RandomStream placement{seed, 999};
      const auto specs = net::case1_dense(channels, placement, params.topology);
      net::ScenarioConfig config;
      config.seed = seed;
      config.dcn.safety_margin = phy::Db{margin};
      net::Scenario scenario{config};
      scenario.add_networks(specs, net::Scheme::kDcn);
      scenario.run(params.warmup, params.measure);
      overall += scenario.overall_throughput();
      const auto pps = scenario.network_throughputs();
      for (std::size_t i = 0; i < per.size(); ++i) per[i] += pps[i];
    }
    for (double& v : per) v /= params.trials;
    ablation.add_row({stats::TablePrinter::num(margin, 0),
                      bench::pps(overall / params.trials),
                      bench::pct(stats::relative_spread(per)),
                      stats::TablePrinter::num(stats::jain_index(per), 3)});
  }
  ablation.print();
  return 0;
}
