// city_field: one city-scale net::Scenario built through the public API —
// 16 networks of 32 links at CFD 3 MHz from 2405 MHz, scattered by
// net::case3_random over a 2 km field with urban path loss (n = 3.5), 0 dBm,
// DCN on every network. The field is many influence radii wide, so the
// spatial-grid gather, listener culling, the sparse caches and a busy
// calendar queue carry the run; exp and the parallel runner are bypassed.
//
// One repetition: set-up (placement, add_networks, start_run, then the
// warm-up run_until), then the measured window advanced in 1 ms slices.
// End-to-end: serial_s is the window's host seconds, rate_per_s scheduler
// events per host second, op_p50_us/op_p99_us host µs per simulated
// millisecond, each slice taken at its fastest repetition. Repetitions run
// the same seed, so their outputs must repeat.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common.hpp"
#include "net/topology.hpp"
#include "phy/channel_plan.hpp"
#include "phy/path_loss.hpp"

namespace perfbench {
namespace {

using namespace nomc;

struct CityShape {
  int channels = 16;
  int links = 32;
  double field_m = 2000.0;
  double warmup_s = 0.2;
  double measure_s = 0.5;
};

/// What one repetition measured.
struct CityRun {
  double deploy_s = 0.0;  ///< placement, add_networks, start_run
  double setup_s = 0.0;   ///< deploy plus the warm-up
  double window_s = 0.0;
  double collect_s = 0.0;
  std::uint64_t events = 0;  ///< scheduler events in the window, probes excluded
  std::vector<double> slice_us;
  std::vector<double> throughputs;
  double overall_pps = 0.0;
  std::string digest;
};

/// Build and arm the city: placement, add_networks, start_run.
std::unique_ptr<net::Scenario> deploy(const CityShape& shape, std::uint64_t seed) {
  net::ScenarioConfig config;
  config.seed = seed;
  config.medium.path_loss = phy::LogDistancePathLoss{3.5, phy::Db{40.0}, 1.0};
  const auto channels = phy::evenly_spaced(phy::Mhz{2405.0}, phy::Mhz{3.0}, shape.channels);
  net::RandomCaseConfig placement_config;
  placement_config.links_per_network = shape.links;
  placement_config.field_m = shape.field_m;
  placement_config = placement_config.with_fixed_power(phy::Dbm{0.0});
  sim::RandomStream placement{seed, /*index=*/999};
  const std::vector<net::NetworkSpec> specs =
      net::case3_random(channels, placement, placement_config);
  auto scenario = std::make_unique<net::Scenario>(config);
  scenario->add_networks(specs, net::Scheme::kDcn);
  scenario->start_run(sim::SimTime::seconds(shape.warmup_s),
                      sim::SimTime::seconds(shape.measure_s));
  return scenario;
}

CityRun run_city(const CityShape& shape, std::uint64_t seed, Tracer& tracer,
                 CountingSink* sink, ProbeStats* probe_stats) {
  CityRun out;
  const int rep_span = tracer.begin(sink != nullptr ? "city_traced" : "city");

  const Clock::time_point setup_start = Clock::now();
  const std::unique_ptr<net::Scenario> owned = deploy(shape, seed);
  net::Scenario& scenario = *owned;
  const Clock::time_point setup_end = Clock::now();
  out.deploy_s = std::chrono::duration<double>(setup_end - setup_start).count();
  tracer.add("deploy", setup_start, setup_end, rep_span);
  const sim::SimTime warmup = sim::SimTime::seconds(shape.warmup_s);
  const sim::SimTime end = warmup + sim::SimTime::seconds(shape.measure_s);

  const int warmup_span = tracer.begin("warmup", rep_span);
  sim::Scheduler& scheduler = scenario.scheduler();
  scheduler.run_until(warmup);
  tracer.end(warmup_span);
  out.setup_s = seconds_since(setup_start);

  std::unique_ptr<Probe> probe;
  if (sink != nullptr) {
    scheduler.set_trace(sink);
    probe = std::make_unique<Probe>(scenario, warmup, end, sim::SimTime::milliseconds(1),
                                    *probe_stats);
  }
  const int window_span = tracer.begin("window", rep_span);
  const std::uint64_t events_before = scheduler.executed();
  const Clock::time_point window_start = Clock::now();
  for (sim::SimTime t = warmup; t < end;) {
    t = t + sim::SimTime::milliseconds(1);
    if (end < t) t = end;
    const Clock::time_point slice_start = Clock::now();
    scheduler.run_until(t);
    out.slice_us.push_back(seconds_since(slice_start) * 1e6);
  }
  out.window_s = seconds_since(window_start);
  out.events = scheduler.executed() - events_before - (probe ? probe->own_events() : 0);
  tracer.end(window_span);

  const Clock::time_point collect_start = Clock::now();
  out.throughputs = scenario.network_throughputs();
  out.overall_pps = scenario.overall_throughput();
  out.collect_s = seconds_since(collect_start);
  tracer.add("collect", collect_start, Clock::now(), rep_span);
  tracer.end(rep_span);

  Digest digest;
  char buffer[64];
  for (const double pps : out.throughputs) {
    std::snprintf(buffer, sizeof buffer, "%.17g,", pps);
    digest.add(buffer);
  }
  digest.add("events=" + std::to_string(out.events));
  out.digest = digest.hex();
  return out;
}

}  // namespace

void run_city_field(const Args& args, Report& report, Tracer& tracer) {
  CityShape shape;
  if (args.toy) shape = {.channels = 4, .links = 4, .field_m = 100.0, .warmup_s = 0.05,
                         .measure_s = 0.05};

  std::vector<CityRun> runs;
  const Clock::time_point measure_start = Clock::now();
  while (runs.empty() || seconds_since(measure_start) < args.seconds) {
    runs.push_back(run_city(shape, args.seed, tracer, nullptr, nullptr));
    const CityRun& run = runs.back();
    bool positive = true;
    for (const double pps : run.throughputs) positive = positive && std::isfinite(pps) && pps > 0;
    report.check(positive && run.events > 0, "every city network delivers in the window");
    report.gate(run.digest == runs.front().digest, "city repetition reproduces the output");
  }

  // Repetitions replay the same simulated work slice for slice, so each
  // slice's fastest repetition keeps host interruptions out of the tail.
  std::vector<double> setup_s, window_s, rates, slices = runs.front().slice_us;
  for (const CityRun& run : runs) {
    setup_s.push_back(run.setup_s);
    window_s.push_back(run.window_s);
    rates.push_back(static_cast<double>(run.events) / run.window_s);
    for (std::size_t i = 0; i < slices.size(); ++i) {
      slices[i] = std::min(slices[i], run.slice_us[i]);
    }
  }
  report.set("setup_s", median(setup_s));
  report.set("serial_s", median(window_s));
  report.set("rate_per_s", median(rates));
  report.set("op_p50_us", quantile(slices, 0.5));
  report.set("op_p99_us", quantile(slices, 0.99));
  report.digests["city_field.output"] = runs.front().digest;

  if (!args.trace) return;

  // Traced repetition: counting sink attached and probes riding the window;
  // its output must equal the untraced repetitions'.
  CountingSink sink;
  ProbeStats probe_stats;
  const CityRun traced = run_city(shape, args.seed, tracer, &sink, &probe_stats);
  report.gate(traced.digest == runs.front().digest,
               "traced city run reproduces the untraced output");
  report.digests["city_field.output.traced"] = traced.digest;

  report.set("net.trials", 1);
  report.set("net.deploy_ms", traced.deploy_s * 1e3);
  report.set("net.run_s", traced.window_s);
  report.set("net.collect_ms", traced.collect_s * 1e3);
  report_sim_layers(report, sink, probe_stats, traced.window_s, traced.events,
                    traced.overall_pps * shape.measure_s);
  report.set("trace.overhead_ratio", traced.window_s / median(window_s));
}

}  // namespace perfbench
