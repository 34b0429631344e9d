// paper_figs: the paper's figure campaigns (Figs. 1, 19, 30) run verbatim
// through exp::run_campaign, exactly as a reproducer runs them — first a
// serial pass (jobs=1, point_jobs=1), then a parallel pass (jobs=1,
// point_jobs=nproc) through sim::ParallelRunner and exp::OrderedCheckpointer.
//
// End-to-end: serial_s is the serial pass wall and rate_per_s the trials per
// second of the parallel pass, both timed around run_campaign here (median
// over the passes; one pass fits the default run). op_p50_us and op_p99_us
// are quantiles of the serial per-point walls the .timing sidecar records.
// Set-up is spec loading plus the golden-store correctness gate. A traced
// run adds a hooked pass (exp::run_point with a TrialHook, a counting trace
// sink and probe events) whose records must equal the untraced store byte
// for byte.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>

#include "common.hpp"
#include "exp/campaign.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "sim/parallel.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace nomc;

struct Campaign {
  std::string path;
  exp::CampaignSpec spec;
  std::vector<exp::SweepPoint> points;
  int trials = 0;  ///< Σ trials over the grid
};

/// One run_campaign into a fresh store: its wall, its bytes, and the
/// per-point walls from the .timing sidecar.
struct CampaignRun {
  double wall_s = 0.0;
  std::string bytes;
  std::vector<double> point_walls_s;
};

bool run_campaign_once(const Campaign& campaign, const std::string& store, int point_jobs,
                       CampaignRun& out, Report& report) {
  exp::CampaignOptions options;
  options.jobs = 1;
  options.point_jobs = point_jobs;
  options.mode = exp::CampaignOptions::Mode::kOverwrite;
  options.quiet = true;
  exp::CampaignStats stats;
  std::string error;
  const Clock::time_point start = Clock::now();
  const bool ok = exp::run_campaign(campaign.spec, store, options, &stats, error);
  out.wall_s = seconds_since(start);
  report.check(ok, "run_campaign " + campaign.spec.name + ": " + error);
  if (!ok) return false;
  for (int i = 0; i < stats.computed; ++i) report.check(true, "point");
  report.check(read_file(store, out.bytes), "read store " + store);

  std::string timing;
  report.check(read_file(store + ".timing", timing), "read timing sidecar of " + store);
  std::size_t begin = 0;
  while (begin < timing.size()) {
    std::size_t end = timing.find('\n', begin);
    if (end == std::string::npos) end = timing.size();
    exp::JsonValue line;
    if (exp::parse_json(timing.substr(begin, end - begin), line, error) &&
        line.find("wall_ms") != nullptr) {
      out.point_walls_s.push_back(line.find("wall_ms")->number / 1000.0);
    }
    begin = end + 1;
  }
  report.check(out.point_walls_s.size() == campaign.points.size(),
               "timing sidecar of " + store + " has one line per point");
  return true;
}

/// DCN over ZigBee overall throughput in a fig19 store (point 1 / point 0).
double fig19_gain(const std::string& bytes) {
  std::vector<double> overall;
  std::size_t begin = 0;
  while (begin < bytes.size()) {
    std::size_t end = bytes.find('\n', begin);
    if (end == std::string::npos) end = bytes.size();
    exp::ResultRecord record;
    std::string error;
    if (exp::parse_record(bytes.substr(begin, end - begin), record, error)) {
      overall.push_back(record.overall_pps);
    }
    begin = end + 1;
  }
  return overall.size() == 2 && overall[0] > 0.0 ? overall[1] / overall[0] : 0.0;
}

/// The layer numbers of one hooked trial, stamped by its TrialHook and its
/// probe events.
struct TrialTimes {
  Clock::time_point hooked;
  std::unique_ptr<Probe> probe;
};

}  // namespace

void run_paper_figs(const Args& args, Report& report, Tracer& tracer) {
  // The paper-scale specs, or their golden shrinks for the toy self-test.
  const std::vector<std::string> names = {"fig01_cfd", "fig19_zigbee_vs_dcn", "fig30_wider_band"};
  std::vector<std::string> spec_paths;
  for (const std::string& name : names) {
    spec_paths.push_back(args.toy ? "tests/golden/" + name + "_small.campaign"
                                  : "examples/campaigns/" + name + ".campaign");
  }
  const fs::path work = fs::path{args.work_dir} / "paper_figs";
  const int point_jobs = nproc();

  // ---- Set-up (timed, repeated): load, parse and expand the three specs,
  // then the correctness gate — the golden shrinks must reproduce their
  // checked-in stores byte for byte — all before any measured pass.
  std::vector<Campaign> campaigns;
  std::vector<double> setup_s, parse_us;
  for (int rep = 0; rep < 3; ++rep) {
    const int span = tracer.begin("setup");
    const Clock::time_point start = Clock::now();
    std::error_code ec;
    fs::remove_all(work, ec);
    fs::create_directories(work, ec);
    campaigns.assign(spec_paths.size(), {});
    double parse_s = 0.0;
    for (std::size_t i = 0; i < spec_paths.size(); ++i) {
      Campaign& c = campaigns[i];
      c.path = spec_paths[i];
      exp::SpecError error;
      const Clock::time_point parse_start = Clock::now();
      const bool ok = exp::load_campaign(c.path, c.spec, error);
      parse_s += seconds_since(parse_start);
      if (!ok) {
        report.check(false, "load " + c.path + ": " + error.str());
        return;
      }
      c.points = exp::expand_grid(c.spec);
      for (const exp::SweepPoint& point : c.points) c.trials += point.params.trials;
    }
    parse_us.push_back(parse_s * 1e6);

    const int gate_span = tracer.begin("golden_gate", span);
    for (const std::string& name : names) {
      Campaign golden;
      golden.path = "tests/golden/" + name + "_small.campaign";
      exp::SpecError error;
      if (!exp::load_campaign(golden.path, golden.spec, error)) {
        report.check(false, "load " + golden.path + ": " + error.str());
        continue;
      }
      golden.points = exp::expand_grid(golden.spec);
      CampaignRun run;
      std::string expected;
      report.check(read_file("tests/golden/" + name + "_small.jsonl", expected),
                   "read golden store of " + name);
      if (run_campaign_once(golden, (work / (name + "_golden.jsonl")).string(), 1, run, report)) {
        report.gate(run.bytes == expected,
                     "golden store " + name + "_small matches byte for byte");
      }
    }
    tracer.end(gate_span);
    setup_s.push_back(seconds_since(start));
    tracer.end(span);
  }
  report.set("setup_s", median(setup_s));
  report.set("exp.parse_us", median(parse_us));

  // ---- Measured passes: serial, then parallel, until the time is up. The
  // seed permutes the campaign order of every pass.
  std::mt19937_64 rng{args.seed};
  std::vector<std::size_t> order = {0, 1, 2};
  std::vector<double> serial_walls, parallel_walls;
  std::vector<double> point_us;  // serial per-point .timing walls of every pass
  std::vector<std::string> reference(campaigns.size());  // pass-0 serial bytes
  double first_point_s = 0.0, first_campaign_s = 0.0;
  double first_parallel_point_s = 0.0, first_parallel_s = 0.0;
  int total_trials = 0;
  for (const Campaign& c : campaigns) total_trials += c.trials;
  const double min_fig19_gain = args.toy ? 1.0 : 1.38;

  const Clock::time_point measure_start = Clock::now();
  for (int pass = 0; pass == 0 || seconds_since(measure_start) < args.seconds; ++pass) {
    std::shuffle(order.begin(), order.end(), rng);
    const fs::path dir = work / ("pass" + std::to_string(pass));
    std::error_code ec;
    fs::create_directories(dir / "serial", ec);
    fs::create_directories(dir / "parallel", ec);
    const int pass_span = tracer.begin("pass");

    std::vector<CampaignRun> serial(campaigns.size()), parallel(campaigns.size());
    double serial_s = 0.0, parallel_s = 0.0;
    for (const std::size_t i : order) {
      const int span = tracer.begin("serial:" + campaigns[i].spec.name, pass_span);
      run_campaign_once(campaigns[i], (dir / "serial" / (names[i] + ".jsonl")).string(), 1,
                        serial[i], report);
      tracer.end(span);
      serial_s += serial[i].wall_s;
    }
    for (const std::size_t i : order) {
      const int span = tracer.begin("parallel:" + campaigns[i].spec.name, pass_span);
      run_campaign_once(campaigns[i], (dir / "parallel" / (names[i] + ".jsonl")).string(),
                        point_jobs, parallel[i], report);
      tracer.end(span);
      parallel_s += parallel[i].wall_s;
    }
    tracer.end(pass_span);
    serial_walls.push_back(serial_s);
    parallel_walls.push_back(parallel_s);

    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      const std::string& name = names[i];
      for (const double w : serial[i].point_walls_s) point_us.push_back(w * 1e6);
      report.gate(!serial[i].bytes.empty() && serial[i].bytes == parallel[i].bytes,
                   "serial and parallel stores of " + name + " are byte-identical");
      if (pass == 0) {
        reference[i] = serial[i].bytes;
        for (const double w : serial[i].point_walls_s) first_point_s += w;
        for (const double w : parallel[i].point_walls_s) first_parallel_point_s += w;
        first_campaign_s += serial[i].wall_s;
      } else {
        report.gate(serial[i].bytes == reference[i], "pass store of " + name + " repeats");
      }
    }
    if (pass == 0) first_parallel_s = parallel_s;
    const double gain = fig19_gain(serial[1].bytes);
    report.gate(gain >= min_fig19_gain, "fig19 DCN/ZigBee overall_pps gain " +
                                             std::to_string(gain) + " >= " +
                                             std::to_string(min_fig19_gain));
    if (pass > 0) fs::remove_all(dir, ec);
  }

  report.set("serial_s", median(serial_walls));
  report.set("rate_per_s", total_trials / median(parallel_walls));
  report.set("op_p50_us", quantile(point_us, 0.5));
  report.set("op_p99_us", quantile(point_us, 0.99));

  Digest store_digest;
  std::uint64_t store_bytes = 0;
  int points = 0;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    store_digest.add(reference[i]);
    store_bytes += reference[i].size();
    points += static_cast<int>(campaigns[i].points.size());
  }
  report.digests["paper_figs.stores"] = store_digest.hex();

  if (!args.trace) return;

  // ---- Traced: exp layer numbers from the pass-0 stores and sidecars.
  report.set("exp.points", points);
  report.set("exp.store_bytes", static_cast<double>(store_bytes));
  report.set("exp.point_s", first_point_s);
  report.set("exp.checkpoint_s", first_campaign_s - first_point_s);
  report.set("exp.pool_busy_ratio", first_parallel_point_s / (first_parallel_s * point_jobs));
  {
    std::vector<std::pair<std::string, std::string>> stores;
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
      stores.emplace_back((work / "pass0" / "serial" / (names[i] + ".jsonl")).string(),
                          exp::spec_hash(campaigns[i].spec));
    }
    report.set("exp.index_find_us", measure_index_find_us(stores, report));
  }

  // ---- Traced: the hooked pass. Every point runs through exp::run_point on
  // a one-thread runner with a TrialHook that attaches the counting sink and
  // a probe chain to each trial's Scenario.
  CountingSink sink;
  ProbeStats probe_stats;
  sim::ParallelRunner runner{1};
  std::string traced_bytes;
  double deploy_s = 0.0, run_s = 0.0, collect_s = 0.0, deliveries = 0.0;
  std::uint64_t events = 0;
  int trial_id = 0;
  const Clock::time_point hooked_start = Clock::now();
  const int hooked_span = tracer.begin("hooked_pass");
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    for (const exp::SweepPoint& point : campaigns[i].points) {
      const int point_span = tracer.begin(names[i] + ":point" + std::to_string(point.index),
                                          hooked_span);
      const sim::SimTime end = sim::SimTime::seconds(point.params.warmup_s) +
                               sim::SimTime::seconds(point.params.measure_s);
      std::vector<TrialTimes> trials(static_cast<std::size_t>(point.params.trials));
      const exp::TrialHook hook = [&](int trial, net::Scenario& scenario) {
        TrialTimes& t = trials[static_cast<std::size_t>(trial)];
        t.hooked = Clock::now();
        scenario.scheduler().set_trace(&sink);
        t.probe = std::make_unique<Probe>(scenario, sim::SimTime::zero(), end,
                                          sim::SimTime::milliseconds(10), probe_stats);
      };
      const exp::PointResult result = exp::run_point(point.params, runner, hook);
      const Clock::time_point returned = Clock::now();
      traced_bytes += exp::format_record(campaigns[i].spec, point, result) + "\n";
      deliveries += result.overall_pps * point.params.measure_s * point.params.trials;

      for (std::size_t k = 0; k < trials.size(); ++k) {
        const TrialTimes& t = trials[k];
        if (!t.probe || !t.probe->finished()) {
          report.check(false, "probe chain of a hooked trial did not finish");
          continue;
        }
        const Clock::time_point next = k + 1 < trials.size() ? trials[k + 1].hooked : returned;
        deploy_s += std::chrono::duration<double>(t.probe->first_at() - t.hooked).count();
        run_s += std::chrono::duration<double>(t.probe->last_at() - t.probe->first_at()).count();
        collect_s += std::chrono::duration<double>(next - t.probe->last_at()).count();
        events += t.probe->events_at_end();
        const int trial_span = tracer.add("trial", t.hooked, next, point_span, trial_id);
        tracer.add("deploy", t.hooked, t.probe->first_at(), trial_span, trial_id);
        tracer.add("run", t.probe->first_at(), t.probe->last_at(), trial_span, trial_id);
        tracer.add("collect", t.probe->last_at(), next, trial_span, trial_id);
        ++trial_id;
      }
      tracer.end(point_span);
    }
  }
  tracer.end(hooked_span);
  const double hooked_s = seconds_since(hooked_start);

  std::string untraced_bytes;
  for (const std::string& bytes : reference) untraced_bytes += bytes;
  report.gate(traced_bytes == untraced_bytes,
               "hooked pass records equal the untraced stores byte for byte");
  Digest traced_digest;  // streaming, so equal to the per-store digest above
  traced_digest.add(traced_bytes);
  report.digests["paper_figs.stores.traced"] = traced_digest.hex();

  report.set("net.trials", trial_id);
  report.set("net.deploy_ms", trial_id > 0 ? deploy_s * 1e3 / trial_id : 0.0);
  report.set("net.run_s", run_s);
  report.set("net.collect_ms", trial_id > 0 ? collect_s * 1e3 / trial_id : 0.0);
  report_sim_layers(report, sink, probe_stats, run_s, events, deliveries);
  report.set("trace.overhead_ratio", hooked_s / median(serial_walls));
}

}  // namespace perfbench
