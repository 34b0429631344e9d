#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "net/scenario.hpp"
#include "net/scheme_names.hpp"
#include "net/sharded_scenario.hpp"
#include "net/topology.hpp"
#include "phy/channel_plan.hpp"
#include "sim/parallel.hpp"
#include "stats/fairness.hpp"

namespace nomc::exp {
namespace {

bool store_exists(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  std::fclose(file);
  return true;
}

void json_append_array(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    json_append_double(out, values[i]);
  }
  out += ']';
}

std::string assignment_label(const SweepPoint& point) {
  std::string label;
  for (const auto& [key, value] : point.assignment) {
    if (!label.empty()) label += ' ';
    label += key + "=" + value;
  }
  return label.empty() ? "(single point)" : label;
}

/// Rebuild the timing sidecar for a resume: keep only well-formed lines for
/// points whose record survived in the store (in their original order), so a
/// kill mid-timing-write — or a record torn out of the store — never leaves
/// a stale or torn line behind. The sidecar is best-effort wall-clock data;
/// unlike the store, unreadable content is dropped, not an error.
bool rewrite_timing_sidecar(const std::string& path, const std::set<int>& completed,
                            StoreWriter& timing, std::string& error) {
  std::string content;
  if (std::FILE* file = std::fopen(path.c_str(), "rb"); file != nullptr) {
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) content.append(buffer, got);
    std::fclose(file);
  }

  std::vector<std::string> kept;
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t newline = content.find('\n', start);
    if (newline == std::string::npos) break;  // torn tail
    std::string line = content.substr(start, newline - start);
    start = newline + 1;
    JsonValue parsed;
    std::string json_error;
    if (!parse_json(line, parsed, json_error)) continue;
    const JsonValue* point = parsed.find("point");
    if (point == nullptr || point->type != JsonValue::Type::kNumber) continue;
    if (completed.count(static_cast<int>(point->number)) == 0) continue;
    kept.push_back(std::move(line));
  }

  if (!timing.open(path, /*truncate=*/true, error)) return false;
  for (const std::string& line : kept) {
    if (!timing.append_line(line, error)) return false;
  }
  return true;
}

}  // namespace

TrialResult run_trial(const PointParams& params, int trial, const TrialHook& pre_run,
                      int trial_workers) {
  net::Scheme scheme = net::Scheme::kFixedCca;
  const bool scheme_ok = net::parse_scheme(params.scheme, scheme);
  assert(scheme_ok && "PointParams.scheme must be pre-validated");
  (void)scheme_ok;
  assert(net::valid_topology(params.topology) && "PointParams.topology must be pre-validated");

  const auto channels = phy::evenly_spaced(phy::Mhz{params.band_start_mhz},
                                           phy::Mhz{params.cfd_mhz}, params.channels);
  net::RandomCaseConfig topology;
  topology.links_per_network = params.links;
  if (params.power_dbm.has_value()) {
    topology = topology.with_fixed_power(phy::Dbm{*params.power_dbm});
  }

  // Matches bench::trial_seed and nomc-sim: distinct deployments per trial,
  // reproducible per point.
  const std::uint64_t seed = params.seed + static_cast<std::uint64_t>(trial) * 1000003;
  sim::RandomStream placement{seed, /*index=*/999};
  std::vector<net::NetworkSpec> specs;
  if (params.topology == "clustered") {
    specs = net::case2_clustered(channels, placement, topology);
  } else if (params.topology == "random") {
    specs = net::case3_random(channels, placement, topology);
  } else {
    specs = net::case1_dense(channels, placement, topology);
  }

  // Scenario and ShardedScenario expose the same result API; the collector
  // is generic so both execution paths produce the numbers identically.
  const auto collect = [&params](const auto& scenario) {
    TrialResult one;
    one.overall_pps = scenario.overall_throughput();
    for (int n = 0; n < scenario.network_count(); ++n) {
      const auto network = scenario.network_result(n);
      double prr = 0.0;
      double backoffs = 0.0;
      double drops = 0.0;
      for (const auto& link : network.links) {
        prr += link.prr;
        backoffs += static_cast<double>(link.sender.cca_backoffs);
        drops += static_cast<double>(link.sender.cca_failures);
      }
      one.pps.push_back(network.throughput_pps);
      one.prr.push_back(prr / static_cast<double>(network.links.size()));
      one.backoffs_per_s.push_back(backoffs / params.measure_s);
      one.drops_per_s.push_back(drops / params.measure_s);
    }
    return one;
  };

  net::ScenarioConfig config;
  config.seed = seed;
  config.psdu_bytes = params.psdu_bytes;
  config.fixed_cca_threshold = phy::Dbm{params.cca_dbm};
  if (trial_workers != 1) {
    net::ShardedScenario scenario{config, {.trial_workers = trial_workers}};
    scenario.add_networks(specs, scheme);
    scenario.run(sim::SimTime::seconds(params.warmup_s), sim::SimTime::seconds(params.measure_s));
    return collect(scenario);
  }
  net::Scenario scenario{config};
  if (pre_run) pre_run(trial, scenario);
  scenario.add_networks(specs, scheme);
  scenario.run(sim::SimTime::seconds(params.warmup_s), sim::SimTime::seconds(params.measure_s));
  return collect(scenario);
}

PointResult merge_trials(const std::vector<TrialResult>& trials) {
  // Each number sums over the trials in seed order, then divides once.
  const double count = static_cast<double>(trials.size());
  const auto mean_of = [&](std::vector<double> TrialResult::*field) {
    std::vector<double> mean((trials.front().*field).size(), 0.0);
    for (const TrialResult& one : trials) {
      for (std::size_t n = 0; n < mean.size(); ++n) mean[n] += (one.*field)[n];
    }
    for (double& value : mean) value /= count;
    return mean;
  };
  PointResult mean;
  mean.pps = mean_of(&TrialResult::pps);
  mean.prr = mean_of(&TrialResult::prr);
  mean.backoffs_per_s = mean_of(&TrialResult::backoffs_per_s);
  mean.drops_per_s = mean_of(&TrialResult::drops_per_s);
  for (const TrialResult& one : trials) mean.overall_pps += one.overall_pps;
  mean.overall_pps /= count;
  mean.jain = stats::jain_index(mean.pps);
  return mean;
}

PointResult run_point(const PointParams& params, sim::ParallelRunner& runner,
                      const TrialHook& pre_run, int trial_workers) {
  return merge_trials(runner.map(params.trials, [&](int trial) {
    return run_trial(params, trial, pre_run, trial_workers);
  }));
}

std::string format_record(const CampaignSpec& spec, const SweepPoint& point,
                          const PointResult& result) {
  const PointParams& p = point.params;
  std::string out = "{\"v\":" + std::to_string(kStoreVersion) + ",\"campaign\":";
  json_append_string(out, spec.name);
  out += ",\"spec_hash\":";
  json_append_string(out, spec_hash(spec));
  out += ",\"point\":" + std::to_string(point.index);

  out += ",\"sweep\":{";
  for (std::size_t i = 0; i < point.assignment.size(); ++i) {
    if (i > 0) out += ',';
    json_append_string(out, point.assignment[i].first);
    out += ':';
    json_append_string(out, point.assignment[i].second);
  }
  out += '}';

  out += ",\"params\":{\"scheme\":";
  json_append_string(out, p.scheme);
  out += ",\"topology\":";
  json_append_string(out, p.topology);
  out += ",\"band_start_mhz\":";
  json_append_double(out, p.band_start_mhz);
  out += ",\"cfd_mhz\":";
  json_append_double(out, p.cfd_mhz);
  out += ",\"channels\":" + std::to_string(p.channels);
  out += ",\"links\":" + std::to_string(p.links);
  out += ",\"power_dbm\":";
  if (p.power_dbm.has_value()) {
    json_append_double(out, *p.power_dbm);
  } else {
    out += "null";
  }
  out += ",\"cca_dbm\":";
  json_append_double(out, p.cca_dbm);
  out += ",\"psdu_bytes\":" + std::to_string(p.psdu_bytes);
  out += ",\"warmup_s\":";
  json_append_double(out, p.warmup_s);
  out += ",\"measure_s\":";
  json_append_double(out, p.measure_s);
  char seed_buffer[32];
  std::snprintf(seed_buffer, sizeof seed_buffer, "%" PRIu64, p.seed);
  out += ",\"seed\":";
  out += seed_buffer;
  out += ",\"trials\":" + std::to_string(p.trials) + "}";

  out += ",\"per_network\":{\"pps\":";
  json_append_array(out, result.pps);
  out += ",\"prr\":";
  json_append_array(out, result.prr);
  out += ",\"backoffs_per_s\":";
  json_append_array(out, result.backoffs_per_s);
  out += ",\"drops_per_s\":";
  json_append_array(out, result.drops_per_s);
  out += "},\"overall_pps\":";
  json_append_double(out, result.overall_pps);
  out += ",\"jain\":";
  json_append_double(out, result.jain);
  out += '}';
  return out;
}

namespace {

/// An opened result store plus the work remaining for one campaign
/// execution. prepare_store does everything that happens before any point is
/// computed — the mode dispatch, the verbatim valid-prefix rewrite of a
/// resumed store, the timing-sidecar rebuild — leaving both writers
/// positioned to append and `pending` holding the grid points still missing,
/// in point order.
struct StorePlan {
  StoreWriter writer;       ///< the JSONL store, valid prefix already written
  StoreWriter timing;       ///< the ".timing" sidecar, rebuilt on resume
  std::vector<int> pending; ///< point indices still to compute, ascending
  int total = 0;            ///< grid size
  int reused = 0;           ///< points already present (resume)
};

bool prepare_store(const CampaignSpec& spec, const std::string& out_path,
                   CampaignOptions::Mode mode, StorePlan& plan, std::string& error) {
  const std::vector<SweepPoint> points = expand_grid(spec);
  const std::string hash = spec_hash(spec);
  plan.total = static_cast<int>(points.size());

  StoreScan existing;
  const bool have_store = store_exists(out_path);
  switch (mode) {
    case CampaignOptions::Mode::kFresh:
      if (have_store) {
        error = "result store already exists: " + out_path +
                " (use resume to continue it, or --overwrite to discard it)";
        return false;
      }
      break;
    case CampaignOptions::Mode::kOverwrite:
      break;
    case CampaignOptions::Mode::kResume:
      if (have_store) {
        if (!scan_store(out_path, hash, existing, error)) return false;
      }
      break;
  }

  if (mode == CampaignOptions::Mode::kResume && have_store) {
    // Rewrite the verbatim valid prefix: drops a torn trailing line (the
    // point that was in flight gets recomputed) while preserving every
    // completed record byte-for-byte.
    if (!plan.writer.open(out_path, /*truncate=*/true, error)) return false;
    if (!existing.valid_prefix.empty()) {
      std::string prefix = existing.valid_prefix;
      prefix.pop_back();  // append_line re-adds the final newline
      if (!plan.writer.append_line(prefix, error)) return false;
    }
  } else {
    if (!plan.writer.open(out_path, /*truncate=*/true, error)) return false;
  }

  if (mode == CampaignOptions::Mode::kResume) {
    if (!rewrite_timing_sidecar(out_path + ".timing", existing.completed, plan.timing,
                                error)) {
      return false;
    }
  } else {
    if (!plan.timing.open(out_path + ".timing", /*truncate=*/true, error)) return false;
  }

  plan.reused = static_cast<int>(existing.completed.size());
  plan.pending.clear();
  for (const SweepPoint& point : points) {
    if (existing.completed.count(point.index) == 0) plan.pending.push_back(point.index);
  }
  return true;
}

}  // namespace

bool run_campaign(const CampaignSpec& spec, const std::string& out_path,
                  const CampaignOptions& options, CampaignStats* stats, std::string& error) {
  const std::vector<SweepPoint> points = expand_grid(spec);

  StorePlan plan;
  if (!prepare_store(spec, out_path, options.mode, plan, error)) return false;

  CampaignStats local;
  local.total = plan.total;
  local.reused = plan.reused;
  std::size_t count = plan.pending.size();
  if (options.max_points >= 0) {
    count = std::min(count, static_cast<std::size_t>(options.max_points));
  }

  // One flat pool of (point, trial) tasks, claimed in point-major order.
  // Checkpointer slot i is the i-th pending point, so the dense slot sequence
  // maps back to the (gappy, on resume) point indices. Whoever finishes a
  // point's last trial merges it and submits the record. Every earlier task
  // is claimed by then, so the point the checkpointer waits on is always
  // running: its back-pressure cannot deadlock the pool.
  struct PendingPoint {
    const SweepPoint* point = nullptr;
    std::vector<TrialResult> trials;
    std::atomic<int> unfinished{0};
    std::chrono::steady_clock::time_point start;  ///< claim of trial 0
  };
  std::vector<PendingPoint> slots(count);
  std::vector<std::pair<int, int>> tasks;  // (slot, trial)
  for (std::size_t slot = 0; slot < count; ++slot) {
    PendingPoint& pending = slots[slot];
    pending.point = &points[static_cast<std::size_t>(plan.pending[slot])];
    const int trials = pending.point->params.trials;
    pending.trials.resize(static_cast<std::size_t>(trials));
    pending.unfinished = trials;
    for (int trial = 0; trial < trials; ++trial) tasks.emplace_back(static_cast<int>(slot), trial);
  }

  sim::ParallelRunner pool{sim::resolve_jobs(options.point_jobs) * sim::resolve_jobs(options.jobs)};
  OrderedCheckpointer checkpointer{plan.writer, plan.timing,
                                   static_cast<std::size_t>(2 * pool.jobs())};
  pool.for_each(static_cast<int>(tasks.size()), [&](int task) {
    const auto [slot, trial] = tasks[static_cast<std::size_t>(task)];
    PendingPoint& pending = slots[static_cast<std::size_t>(slot)];
    const SweepPoint& point = *pending.point;
    if (trial == 0) pending.start = std::chrono::steady_clock::now();
    pending.trials[static_cast<std::size_t>(trial)] =
        run_trial(point.params, trial, {}, options.trial_workers);
    // The atomic decrement orders every trial's writes before the last one.
    if (--pending.unfinished != 0) return;

    const PointResult result = merge_trials(pending.trials);
    pending.trials = {};
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - pending.start)
            .count();

    std::string timing_line = "{\"point\":" + std::to_string(point.index) + ",\"wall_ms\":";
    json_append_double(timing_line, wall_ms);
    timing_line += '}';

    std::string console;
    if (!options.quiet) {
      char buffer[256];
      std::snprintf(buffer, sizeof buffer,
                    "[%d/%d] %s  overall=%.1f pkt/s  jain=%.3f  (%.2fs)\n", point.index + 1,
                    local.total, assignment_label(point).c_str(), result.overall_pps,
                    result.jain, wall_ms / 1000.0);
      console = buffer;
    }
    checkpointer.submit(slot, format_record(spec, point, result), std::move(timing_line),
                        std::move(console));
  });
  if (!checkpointer.finish(error)) return false;
  local.computed = static_cast<int>(count);

  if (stats != nullptr) *stats = local;
  return true;
}

}  // namespace nomc::exp
