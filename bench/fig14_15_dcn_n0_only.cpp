// Paper Figs. 14-15: apply DCN only on network N0 (the median-frequency
// network of five) and compare against the all-fixed baseline, for
// CFD = 2 and 3 MHz.
//
// Expected shape: N0's throughput improves substantially (paper: ~27 %) —
// it stops deferring to its neighbours' inter-channel energy; the OTHER
// four networks (still on the fixed threshold) lose a little (paper: ~5 %)
// because N0's increased airtime is extra energy in their CCA reads.
//
// Secondary table: ablation of DCN's updating window T_U on the same
// scenario (DESIGN.md §8).
#include <cstdio>

#include "common.hpp"
#include "exp/campaign.hpp"

namespace {

using namespace nomc;

constexpr int kMedian = 2;  // N0 = the median-frequency network (Fig. 13)

/// Mean per-network throughput over params.trials dense deployments of
/// `channels`. Network kMedian runs DCN (configured by `dcn`) when
/// `dcn_on_median` is set; every other network keeps the fixed threshold.
std::vector<double> mean_network_pps(std::span<const phy::Mhz> channels, bool dcn_on_median,
                                     const dcn::DcnConfig& dcn,
                                     const bench::BandRunParams& params) {
  std::vector<double> mean(channels.size(), 0.0);
  for (int trial = 0; trial < params.trials; ++trial) {
    const std::uint64_t seed = exp::trial_seed(params.seed, trial);
    sim::RandomStream placement{seed, /*index=*/999};
    const auto specs = net::case1_dense(channels, placement, params.topology);
    net::ScenarioConfig config;
    config.seed = seed;
    config.dcn = dcn;
    net::Scenario scenario{config};
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const bool dcn_here = dcn_on_median && static_cast<int>(i) == kMedian;
      const int n = scenario.add_network(specs[i].channel,
                                         dcn_here ? net::Scheme::kDcn : net::Scheme::kFixedCca);
      for (const net::LinkSpec& link : specs[i].links) scenario.add_link(n, link);
    }
    scenario.run(params.warmup, params.measure);
    const std::vector<double> pps = scenario.network_throughputs();
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += pps[i];
  }
  for (double& v : mean) v /= params.trials;
  return mean;
}

}  // namespace

int main() {
  bench::print_header("Figs. 14-15", "DCN applied only on the median network N0 "
                                     "(5 networks, CFD = 2 and 3 MHz)");

  stats::TablePrinter table{{"CFD (MHz)", "N0 w/o (pkt/s)", "N0 with (pkt/s)", "N0 gain",
                             "others w/o", "others with", "others change"}};
  const bench::BandRunParams params;
  for (const double cfd : {2.0, 3.0}) {
    const auto channels = phy::evenly_spaced(bench::kBandStart, phy::Mhz{cfd}, 5);
    const std::vector<double> without = mean_network_pps(channels, false, {}, params);
    const std::vector<double> with = mean_network_pps(channels, true, {}, params);
    double others_without = 0.0;
    double others_with = 0.0;
    for (std::size_t i = 0; i < channels.size(); ++i) {
      if (static_cast<int>(i) == kMedian) continue;
      others_without += without[i];
      others_with += with[i];
    }
    table.add_row({stats::TablePrinter::num(cfd, 0), bench::pps(without[kMedian]),
                   bench::pps(with[kMedian]), bench::pct(with[kMedian] / without[kMedian] - 1.0),
                   bench::pps(others_without), bench::pps(others_with),
                   bench::pct(others_with / others_without - 1.0)});
  }
  table.print();
  std::printf("\nPaper: N0 gains ~27%% at both CFDs; other networks lose ~5%%.\n");

  // Ablation: the updating window T_U (CFD = 3 MHz scenario).
  std::printf("\nAblation — updating window T_U (CFD=3 MHz, DCN on N0):\n");
  stats::TablePrinter ablation{{"T_U (s)", "N0 with DCN (pkt/s)"}};
  const auto channels = phy::evenly_spaced(bench::kBandStart, phy::Mhz{3.0}, 5);
  for (const double tu : {1.0, 3.0, 6.0, 12.0}) {
    dcn::DcnConfig dcn;
    dcn.t_update = sim::SimTime::seconds(tu);
    const std::vector<double> with = mean_network_pps(channels, true, dcn, params);
    ablation.add_row({stats::TablePrinter::num(tu, 0), bench::pps(with[kMedian])});
  }
  ablation.print();
  return 0;
}
