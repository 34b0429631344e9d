// nomc-compare — A/B comparison driver with confidence intervals.
//
// Runs two channel-plan/scheme designs over the same set of random
// deployments (paired seeds) and reports overall throughput as mean ± 95 %
// CI plus the paired relative gain. Each design is an exp::PointParams run
// trial by trial through exp::run_trial, so design A's trial i is trial i
// of nomc-sim or of a campaign point with the same settings. Example — the
// paper's headline:
//
//   nomc-compare --a-cfd 5 --a-channels 4 --a-scheme fixed --a-links 3
//                --b-cfd 3 --b-channels 6 --b-scheme dcn --trials 10
#include <cstdio>
#include <string>

#include "cli/args.hpp"
#include "cli/options.hpp"
#include "exp/campaign.hpp"
#include "exp/spec.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace {

using namespace nomc;

/// Options both designs share, and the keys each design sets through its
/// own `--a-<key>` / `--b-<key>` option. Every option is a string validated
/// by exp::apply_param, so the tool accepts exactly what a campaign spec
/// assignment of the same key accepts.
constexpr const char* kSharedKeys[] = {"band-start", "topology", "power",  "trials",
                                       "seed",       "warmup",   "measure"};
constexpr const char* kDesignKeys[] = {"cfd", "channels", "links", "scheme"};

/// Design `prefix` ("a" or "b"). Prints the offending option and
/// apply_param's message on a bad value.
bool design_from_args(const cli::ArgParser& args, const std::string& prefix,
                      exp::PointParams& out) {
  std::string message;
  const auto apply = [&](const std::string& key, const std::string& option) {
    if (exp::apply_param(out, key, args.get_string(option), message)) return true;
    std::fprintf(stderr, "--%s: %s\n", option.c_str(), message.c_str());
    return false;
  };
  for (const char* key : kSharedKeys) {
    if (!apply(key, key)) return false;
  }
  for (const char* key : kDesignKeys) {
    if (!apply(key, prefix + "-" + key)) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args;
  args.add_string("band-start", "2458", "first channel center (MHz), both designs");
  cli::add_topology_option(args);
  args.add_string("power", "random", "fixed TX power (dBm), or random [-22, 0] per node");
  args.add_string("trials", "5", "paired random deployments");
  args.add_string("seed", "1", "base seed (trial i uses seed + i*1000003)");
  args.add_string("warmup", "2", "warm-up (s)");
  args.add_string("measure", "8", "measurement window (s)");
  args.add_string("a-cfd", "5", "design A: channel distance (MHz)");
  args.add_string("a-channels", "4", "design A: channel count");
  args.add_string("a-links", "3", "design A: links per network");
  cli::add_scheme_option(args, "a-scheme", "fixed", "design A");
  args.add_string("b-cfd", "3", "design B: channel distance (MHz)");
  args.add_string("b-channels", "6", "design B: channel count");
  args.add_string("b-links", "2", "design B: links per network");
  cli::add_scheme_option(args, "b-scheme", "dcn", "design B");

  if (const auto exit_code = cli::parse_standard(args, argc, argv, argv[0])) {
    return *exit_code;
  }
  exp::PointParams a;
  exp::PointParams b;
  if (!design_from_args(args, "a", a) || !design_from_args(args, "b", b)) return 2;

  stats::SummaryStats stats_a;
  stats::SummaryStats stats_b;
  stats::SummaryStats gain;
  for (int trial = 0; trial < a.trials; ++trial) {
    const double result_a = exp::run_trial(a, trial).overall_pps;
    const double result_b = exp::run_trial(b, trial).overall_pps;
    stats_a.add(result_a);
    stats_b.add(result_b);
    if (result_a > 0.0) gain.add(100.0 * (result_b / result_a - 1.0));
  }

  auto describe = [](const exp::PointParams& d) {
    return std::to_string(d.channels) + "ch @ " + stats::TablePrinter::num(d.cfd_mhz, 0) +
           "MHz, " + d.scheme;
  };
  stats::TablePrinter table{{"design", "overall (pkt/s)", "±95% CI"}};
  table.add_row({"A: " + describe(a), stats::TablePrinter::num(stats_a.mean(), 1),
                 stats::TablePrinter::num(stats_a.ci95_half_width(), 1)});
  table.add_row({"B: " + describe(b), stats::TablePrinter::num(stats_b.mean(), 1),
                 stats::TablePrinter::num(stats_b.ci95_half_width(), 1)});
  table.print();
  std::printf("\nB vs A (paired over %d deployments): %+.1f%% ± %.1f%%\n", a.trials,
              gain.mean(), gain.ci95_half_width());
  return 0;
}
