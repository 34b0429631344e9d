// nomc_sim — command-line simulation driver.
//
// Runs one multi-network deployment and prints per-network results, so a
// user can explore channel plans, schemes, and topologies without writing
// C++. Examples:
//
//   # The paper's headline comparison, one side at a time:
//   nomc_sim --cfd 5 --channels 4 --scheme fixed --links 3
//   nomc_sim --cfd 3 --channels 6 --scheme dcn
//
//   # Case III with a trace of every DCN threshold move:
//   nomc_sim --topology random --scheme dcn --trace run.csv
//
//   # 32 independent deployments averaged, replicated across all cores:
//   nomc_sim --scheme dcn --trials 32 --jobs 0
//
// One operating point of a sweep; for whole parameter sweeps with a result
// store, see nomc-campaign. Both execute points through exp::run_point, so
// their numbers agree exactly.
#include <cstdio>
#include <memory>
#include <string>

#include "cli/args.hpp"
#include "cli/options.hpp"
#include "exp/campaign.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "net/scenario.hpp"
#include "net/scheme_names.hpp"
#include "net/topology.hpp"
#include "sim/parallel.hpp"
#include "sim/trace.hpp"
#include "stats/table.hpp"

namespace {

using namespace nomc;

std::string text(double value) {
  std::string out;
  exp::json_append_double(out, value);
  return out;
}

int run(const cli::ArgParser& args) {
  exp::PointParams params;
  std::string message;
  // Each base spec key is a string option validated by exp::apply_param, so
  // the CLI accepts exactly what a campaign spec assignment accepts.
  for (const exp::SpecKey& key : exp::spec_keys()) {
    if (key.optional()) continue;  // spec-only: no option
    if (!exp::apply_param(params, key.name, args.get_string(key.name), message)) {
      std::fprintf(stderr, "%s\n", message.c_str());
      return 1;
    }
  }
  if (net::is_rig_topology(params.topology) && params.channels != net::kFig5Channels) {
    std::fprintf(stderr, "--topology %s places %d channels: add --channels %d\n",
                 params.topology.c_str(), net::kFig5Channels, net::kFig5Channels);
    return 1;
  }

  // The event trace is a single-run debugging artifact; averaging trials
  // would interleave unrelated runs, so the trace only attaches to trial 0
  // and --trace forces that trial to run alone on the calling thread.
  std::unique_ptr<sim::CsvTraceSink> trace;
  if (args.provided("trace") && params.trials > 1) {
    std::fprintf(stderr, "--trace requires --trials 1\n");
    return 1;
  }
  if (args.provided("trace")) {
    trace = std::make_unique<sim::CsvTraceSink>(args.get_string("trace"));
  }

  sim::ParallelRunner runner{trace ? 1 : args.get_int("jobs")};
  const exp::PointResult mean =
      exp::run_point(params, runner, [&](int trial, net::Scenario& scenario) {
        if (trace && trial == 0) scenario.scheduler().set_trace(trace.get());
      });

  std::printf("scheme=%s topology=%s channels=%d cfd=%.1fMHz seed=%llu trials=%d jobs=%d\n\n",
              params.scheme.c_str(), params.topology.c_str(), params.channels,
              params.cfd_mhz, static_cast<unsigned long long>(params.seed), params.trials,
              runner.jobs());

  // Every trial places its networks on the same channels.
  const std::vector<net::NetworkSpec> networks = exp::place_networks(params, 0);
  stats::TablePrinter table{{"network", "MHz", "pkt/s", "PRR", "backoffs/s", "drops/s"}};
  for (std::size_t n = 0; n < mean.pps.size(); ++n) {
    std::string label = "N";  // discrete appends keep GCC 12's -Wrestrict quiet
    label += std::to_string(n);
    table.add_row({std::move(label),
                   stats::TablePrinter::num(networks[n].channel.value, 0),
                   stats::TablePrinter::num(mean.pps[n], 1),
                   stats::TablePrinter::num(100.0 * mean.prr[n], 1) + "%",
                   stats::TablePrinter::num(mean.backoffs_per_s[n], 1),
                   stats::TablePrinter::num(mean.drops_per_s[n], 1)});
  }
  table.print();
  std::printf("\noverall: %.1f pkt/s   Jain fairness: %.3f\n", mean.overall_pps, mean.jain);
  if (trace) std::printf("trace written to %s\n", args.get_string("trace").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Defaults are the campaign spec's, except one trial.
  const exp::PointParams defaults;
  cli::ArgParser args;
  args.add_string("band-start", text(defaults.band_start_mhz),
                  "first channel center frequency (MHz)");
  args.add_string("cfd", text(defaults.cfd_mhz), "channel frequency distance (MHz)");
  args.add_string("channels", std::to_string(defaults.channels), "number of channels / networks");
  cli::add_scheme_option(args, "scheme", defaults.scheme);
  cli::add_topology_option(args, "topology", defaults.topology);
  args.add_string("links", std::to_string(defaults.links), "sender->receiver links per network");
  args.add_string("power", "random",
                  "fixed TX power (dBm) for all nodes, or random [-22, 0] per node");
  args.add_string("cca", text(defaults.cca_dbm), "fixed-scheme CCA threshold (dBm)");
  args.add_string("psdu", std::to_string(defaults.psdu_bytes), "data frame PSDU size (bytes)");
  args.add_string("warmup", text(defaults.warmup_s), "warm-up before measurement (s)");
  args.add_string("measure", text(defaults.measure_s), "measurement window (s)");
  args.add_string("seed", std::to_string(defaults.seed),
                  "random seed (placement, fading, backoff)");
  args.add_string("trials", "1", "independent random deployments averaged (seed + i*1000003)");
  args.add_int("jobs", 1, "worker threads for trials (0 = all hardware threads)");
  args.add_string("trace", "", "write a CSV event trace to this path (needs --trials 1)");

  if (const auto exit_code = cli::parse_standard(args, argc, argv, argv[0])) {
    return *exit_code;
  }
  return run(args);
}
