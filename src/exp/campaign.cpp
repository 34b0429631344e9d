#include "exp/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <climits>
#include <cstdio>
#include <filesystem>

#include "net/scenario.hpp"
#include "net/scheme_names.hpp"
#include "net/topology.hpp"
#include "phy/channel_plan.hpp"
#include "sim/parallel.hpp"
#include "stats/fairness.hpp"

namespace nomc::exp {
namespace {

void json_append_array(std::string& out, const std::vector<double>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    json_append_double(out, values[i]);
  }
  out += ']';
}

/// Rebuild the timing sidecar for a resume: keep only well-formed lines for
/// points whose record survived in the store (in their original order, the
/// first line per point), so a kill mid-timing-write — or a record torn out
/// of the store — never leaves a stale, torn or duplicate line behind. The
/// sidecar is best-effort wall-clock data; unlike the store, unreadable
/// content is dropped, not an error.
bool rewrite_timing_sidecar(const std::string& path, const std::set<int>& completed,
                            StoreWriter& timing, std::string& error) {
  std::string content;
  read_whole_file(path, content);  // best effort: a missing sidecar reads as empty

  std::set<int> unclaimed = completed;  // points still without a kept line
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
    int point = -1;
    if (!json_int(parsed.find("point"), 0, INT_MAX, point) || unclaimed.erase(point) == 0) continue;
    kept.push_back(std::move(line));
  }

  if (!timing.open(path, /*truncate=*/true, error)) return false;
  for (const std::string& line : kept) {
    if (!timing.append_line(line, error)) return false;
  }
  return true;
}

/// One finished trial's numbers, per network.
TrialResult collect(const PointParams& params, const net::Scenario& scenario) {
  TrialResult one;
  one.overall_pps = scenario.overall_throughput();
  for (int n = 0; n < scenario.network_count(); ++n) {
    const net::Scenario::NetworkResult network = scenario.network_result(n);
    double prr = 0.0;
    double backoffs = 0.0;
    double drops = 0.0;
    for (const net::Scenario::LinkResult& link : network.links) {
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
}

}  // namespace

std::vector<net::NetworkSpec> place_networks(const PointParams& params, int trial) {
  assert(net::valid_topology(params.topology) && "PointParams.topology must be pre-validated");
  const auto channels = phy::evenly_spaced(phy::Mhz{params.band_start_mhz},
                                           phy::Mhz{params.cfd_mhz}, params.channels);
  net::RandomCaseConfig topology;
  topology.links_per_network = params.links;
  if (params.region_m) topology.region_m = *params.region_m;
  if (params.room_spacing_m) topology.room_spacing_m = *params.room_spacing_m;
  if (params.power_dbm.has_value()) {
    topology = topology.with_fixed_power(phy::Dbm{*params.power_dbm});
  }

  sim::RandomStream placement{trial_seed(params.seed, trial), /*index=*/999};
  std::vector<net::NetworkSpec> specs;
  if (net::is_rig_topology(params.topology)) {
    specs = net::fig5_rig(channels, placement, topology, params.topology == "fig5-cochannel");
  } else if (params.topology == "clustered") {
    specs = net::case2_clustered(channels, placement, topology);
  } else if (params.topology == "random") {
    specs = net::case3_random(channels, placement, topology);
  } else {
    specs = net::case1_dense(channels, placement, topology);
  }
  // A power.N override rewrites the placed links, so no placement draw moves.
  for (const auto& [network, power] : params.network_power_dbm) {
    assert(network < params.channels && "power.N must be pre-validated");
    for (net::LinkSpec& link : specs[static_cast<std::size_t>(network)].links) {
      link.tx_power = phy::Dbm{power};
    }
  }
  return specs;
}

TrialResult run_trial(const PointParams& params, int trial, const TrialHook& pre_run) {
  net::Scheme scheme = net::Scheme::kFixedCca;
  const bool scheme_ok = net::parse_scheme(params.scheme, scheme);
  assert(scheme_ok && "PointParams.scheme must be pre-validated");
  (void)scheme_ok;
  const std::vector<net::NetworkSpec> specs = place_networks(params, trial);

  net::ScenarioConfig config;
  config.seed = trial_seed(params.seed, trial);
  config.psdu_bytes = params.psdu_bytes;
  config.fixed_cca_threshold = phy::Dbm{params.cca_dbm};
  if (params.dcn_margin_db) config.dcn.safety_margin = phy::Db{*params.dcn_margin_db};
  if (params.dcn_tu_s) config.dcn.t_update = sim::SimTime::seconds(*params.dcn_tu_s);
  net::Scenario scenario{config};
  if (pre_run) pre_run(trial, scenario);
  for (std::size_t n = 0; n < specs.size(); ++n) {
    net::Scheme network_scheme = scheme;
    if (const auto it = params.network_scheme.find(static_cast<int>(n));
        it != params.network_scheme.end()) {
      (void)net::parse_scheme(it->second, network_scheme);  // validated by apply_param
    }
    const int network = scenario.add_network(specs[n].channel, network_scheme);
    for (const net::LinkSpec& link : specs[n].links) scenario.add_link(network, link);
  }
  for (const auto& [network, cca] : params.network_cca_dbm) {
    assert(network < params.channels && "cca.N must be pre-validated");
    for (int l = 0; l < scenario.link_count(network); ++l) {
      scenario.fixed_cca(network, l).set(phy::Dbm{cca});
    }
  }
  scenario.run(sim::SimTime::seconds(params.warmup_s), sim::SimTime::seconds(params.measure_s));
  return collect(params, scenario);
}

PointResult merge_trials(const std::vector<TrialResult>& trials) {
  // Each number sums over the trials in seed order, then divides once.
  const double count = static_cast<double>(trials.size());
  PointResult mean;
  for (const NetworkColumn& column : kNetworkColumns) {
    std::vector<double>& sum = mean.*column.values;
    sum.assign((trials.front().*column.values).size(), 0.0);
    for (const TrialResult& one : trials) {
      for (std::size_t n = 0; n < sum.size(); ++n) sum[n] += (one.*column.values)[n];
    }
    for (double& value : sum) value /= count;
  }
  for (const TrialResult& one : trials) {
    mean.overall_pps += one.overall_pps;
    mean.trial_overall_pps.push_back(one.overall_pps);
    mean.trial_pps.push_back(one.pps);
  }
  mean.overall_pps /= count;
  mean.jain = stats::jain_index(mean.pps);
  return mean;
}

PointResult run_point(const PointParams& params, sim::ParallelRunner& runner,
                      const TrialHook& pre_run) {
  return merge_trials(runner.map(params.trials, [&](int trial) {
    return run_trial(params, trial, pre_run);
  }));
}

std::string format_record(const CampaignSpec& spec, const SweepPoint& point,
                          const PointResult& result) {
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

  const char* separator = "";
  out += ",\"params\":{";
  for (const KeySetting& setting : key_settings(point.params)) {
    out += separator;
    json_append_string(out, setting.record);
    out += ':';
    out += setting.json;
    separator = ",";
  }
  out += "},\"per_network\":{";
  separator = "";
  for (const NetworkColumn& column : kNetworkColumns) {
    out += separator;
    json_append_string(out, column.name);
    out += ':';
    json_append_array(out, result.*column.values);
    separator = ",";
  }
  out += "},\"overall_pps\":";
  json_append_double(out, result.overall_pps);
  out += ",\"jain\":";
  json_append_double(out, result.jain);
  out += ",\"per_trial\":{\"overall_pps\":";
  json_append_array(out, result.trial_overall_pps);
  out += ',';
  json_append_string(out, kTrialColumn.name);
  out += ":[";
  for (std::size_t trial = 0; trial < result.trial_pps.size(); ++trial) {
    if (trial > 0) out += ',';
    json_append_array(out, result.trial_pps[trial]);
  }
  out += "]}}";
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
  std::error_code ignored;
  const bool have_store = std::filesystem::exists(out_path, ignored);
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
    pending.trials[static_cast<std::size_t>(trial)] = run_trial(point.params, trial);
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
                    local.total, assignment_label(point.assignment).c_str(), result.overall_pps,
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
