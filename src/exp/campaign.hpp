// CampaignRunner: expands a CampaignSpec into its sweep grid, executes every
// (point, trial) pair on one flat worker pool (claimed in point-major order;
// whoever finishes a point's last trial merges it), and checkpoints completed
// points into the JSONL result store through an OrderedCheckpointer, so
// records land in point order no matter which point finished first.
//
// Determinism contract: a point's record bytes are a pure function of the
// spec — trials are seeded by trial_seed (seed + trial * 1000003), as in
// nomc-sim, and merged in seed order, so the store is
// byte-identical whether the campaign ran straight through, was interrupted
// and resumed, or used any (jobs, point_jobs) combination. Checkpoint
// granularity is one sweep point: resume re-runs at most the points that
// were in flight.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "net/spec.hpp"

namespace nomc::sim {
class ParallelRunner;
}
namespace nomc::net {
class Scenario;
}

namespace nomc::exp {

/// Seed-ordered mean across a point's trials, per network, plus each
/// trial's own pps in seed order.
struct PointResult : NetworkColumns {
  double overall_pps = 0.0;
  double jain = 0.0;  ///< Jain fairness index of the mean per-network pps
  std::vector<double> trial_overall_pps;       ///< trial i's overall pps
  std::vector<std::vector<double>> trial_pps;  ///< [trial][network]
};

/// Called for each trial's Scenario after construction, before run()
/// (nomc-sim uses it to attach the event trace to trial 0).
using TrialHook = std::function<void(int trial, net::Scenario&)>;

/// One trial's numbers, per network, before the seed-ordered mean.
struct TrialResult : NetworkColumns {
  double overall_pps = 0.0;
};

/// Seed of trial `trial` of a point seeded `seed`: distinct deployments per
/// trial, reproducible per point. Every multi-trial run in the repo uses it.
[[nodiscard]] constexpr std::uint64_t trial_seed(std::uint64_t seed, int trial) {
  return seed + static_cast<std::uint64_t>(trial) * 1000003;
}

/// The networks trial `trial` of an operating point deploys, in network
/// order: its topology's placement (drawn from trial_seed(params.seed,
/// trial)) with every power.N override applied. The params must be
/// pre-validated (apply_param).
[[nodiscard]] std::vector<net::NetworkSpec> place_networks(const PointParams& params, int trial);

/// Run trial `trial` of an operating point: one deployment seeded
/// trial_seed(params.seed, trial). The params must be pre-validated
/// (apply_param); run_trial asserts on an unknown scheme/topology.
[[nodiscard]] TrialResult run_trial(const PointParams& params, int trial,
                                    const TrialHook& pre_run = {});

/// The point's result: the mean of all its trials (trials[i] is trial i),
/// summed in seed order, and each trial's overall and per-network pps.
[[nodiscard]] PointResult merge_trials(const std::vector<TrialResult>& trials);

/// Run one operating point: run_trial for each trial on `runner`, then merge.
[[nodiscard]] PointResult run_point(const PointParams& params, sim::ParallelRunner& runner,
                                    const TrialHook& pre_run = {});

struct CampaignOptions {
  /// The campaign's pool has resolve_jobs(jobs) * resolve_jobs(point_jobs)
  /// threads (0 = all hardware threads); the trials of every pending point
  /// share them. Records still hit the store in point order via
  /// OrderedCheckpointer, and their bytes do not depend on either knob.
  int jobs = 1;
  int point_jobs = 1;
  enum class Mode {
    kFresh,      ///< error if the store already exists
    kOverwrite,  ///< truncate an existing store
    kResume,     ///< keep completed points, compute the rest
  };
  Mode mode = Mode::kFresh;
  /// Stop after computing this many new points (< 0 = no limit). The test
  /// suite uses this to simulate an interrupted campaign.
  int max_points = -1;
  bool quiet = false;  ///< suppress per-point progress lines on stdout
};

struct CampaignStats {
  int total = 0;     ///< grid size
  int computed = 0;  ///< points run in this invocation
  int reused = 0;    ///< points already in the store (resume)
};

/// Execute `spec` into the JSONL store at `out_path` (timing sidecar at
/// `out_path + ".timing"`). Returns false and fills `error` on spec-hash
/// mismatch, store corruption, or I/O failure.
bool run_campaign(const CampaignSpec& spec, const std::string& out_path,
                  const CampaignOptions& options, CampaignStats* stats, std::string& error);

/// The store record for one completed point (no trailing newline). Exposed
/// for tests that check byte-level determinism.
[[nodiscard]] std::string format_record(const CampaignSpec& spec, const SweepPoint& point,
                                        const PointResult& result);

}  // namespace nomc::exp
