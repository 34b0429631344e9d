// Dense deployment walkthrough (the paper's Case I, Fig. 22).
//
// Scenario: a dense sensor field — e.g. vibration monitoring across one
// machine hall — where every node interferes with every other. This is the
// regime the paper's introduction motivates: co-channel collisions are
// constant, so the operator spreads networks across channels; the question
// is how many channels a fixed band can sustain.
//
// The example walks the three design points (ZigBee default, non-orthogonal
// CFD=3 MHz without DCN, and with DCN), prints per-network results and
// fairness, and inspects the thresholds the CCA-Adjustors settled on.
#include <cstdio>
#include <vector>

#include "net/scenario.hpp"
#include "net/topology.hpp"
#include "phy/channel_plan.hpp"
#include "stats/fairness.hpp"
#include "stats/table.hpp"

namespace {

using namespace nomc;

double run_design(const char* name, std::span<const phy::Mhz> channels,
                  int links_per_network, net::Scheme scheme) {
  net::RandomCaseConfig topology;
  topology.region_m = 3.0;             // everything within one small region
  topology.links_per_network = links_per_network;

  net::ScenarioConfig config;
  config.seed = 7;
  net::Scenario scenario{config};
  sim::RandomStream placement{config.seed, 999};
  scenario.add_networks(net::case1_dense(channels, placement, topology), scheme);
  scenario.run(sim::SimTime::seconds(2.0), sim::SimTime::seconds(10.0));

  std::printf("%s\n", name);
  stats::TablePrinter table{{"network", "MHz", "pkt/s", "PRR", "CCA thresholds (dBm)"}};
  std::vector<double> per_network;
  for (int n = 0; n < scenario.network_count(); ++n) {
    const auto result = scenario.network_result(n);
    per_network.push_back(result.throughput_pps);

    double prr = 0.0;
    for (const auto& link : result.links) prr += link.prr;
    prr /= static_cast<double>(result.links.size());

    std::string thresholds;
    for (int l = 0; l < scenario.link_count(n); ++l) {
      if (!thresholds.empty()) thresholds += " ";
      const dcn::CcaAdjustor* adjustor = scenario.adjustor(n, l);
      thresholds += stats::TablePrinter::num(
          adjustor != nullptr ? adjustor->threshold().value
                              : scenario.fixed_cca(n, l).threshold().value,
          1);
    }
    std::string network = "N";
    network += std::to_string(n);
    table.add_row({network,
                   stats::TablePrinter::num(scenario.network_channel(n).value, 0),
                   stats::TablePrinter::num(result.throughput_pps, 1),
                   stats::TablePrinter::num(100.0 * prr, 1) + "%", thresholds});
  }
  table.print();
  std::printf("overall: %.1f pkt/s   Jain fairness: %.3f\n\n",
              scenario.overall_throughput(), stats::jain_index(per_network));
  return scenario.overall_throughput();
}

}  // namespace

int main() {
  std::printf("=== Dense deployment (Case I): 24 nodes, 15 MHz band ===\n\n");
  const auto zigbee = phy::evenly_spaced(phy::Mhz{2458.0}, phy::Mhz{5.0}, 4);
  const auto packed = phy::evenly_spaced(phy::Mhz{2458.0}, phy::Mhz{3.0}, 6);

  const double base = run_design("-- ZigBee default: 4 channels @ 5 MHz, fixed -77 dBm CCA --",
                                 zigbee, 3, net::Scheme::kFixedCca);
  const double packed_fixed =
      run_design("-- Non-orthogonal: 6 channels @ 3 MHz, fixed CCA --", packed, 2,
                 net::Scheme::kFixedCca);
  const double packed_dcn = run_design("-- Non-orthogonal + DCN: 6 channels @ 3 MHz --", packed,
                                       2, net::Scheme::kDcn);

  std::printf("Packing the band alone:  %+.1f%%\n", 100.0 * (packed_fixed / base - 1.0));
  std::printf("Adding DCN on top:       %+.1f%%\n",
              100.0 * (packed_dcn / packed_fixed - 1.0));
  std::printf("Total vs ZigBee default: %+.1f%%\n", 100.0 * (packed_dcn / base - 1.0));
  return 0;
}
