// CampaignRunner: expands a CampaignSpec into its sweep grid, executes every
// (point, trial) pair on one flat worker pool (claimed in point-major order;
// whoever finishes a point's last trial merges it), and checkpoints completed
// points into the JSONL result store through an OrderedCheckpointer, so
// records land in point order no matter which point finished first.
//
// Determinism contract: a point's record bytes are a pure function of the
// spec — trials are seeded per point exactly like nomc-sim / bench::trial_seed
// (seed + trial * 1000003) and merged in seed order, so the store is
// byte-identical whether the campaign ran straight through, was interrupted
// and resumed, or used any (jobs, point_jobs) combination. Checkpoint
// granularity is one sweep point: resume re-runs at most the points that
// were in flight.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "exp/result_store.hpp"
#include "exp/spec.hpp"

namespace nomc::sim {
class ParallelRunner;
}
namespace nomc::net {
class Scenario;
}

namespace nomc::exp {

/// Seed-ordered mean across a point's trials, per network.
struct PointResult {
  std::vector<double> pps;
  std::vector<double> prr;
  std::vector<double> backoffs_per_s;
  std::vector<double> drops_per_s;
  double overall_pps = 0.0;
  double jain = 0.0;  ///< Jain fairness index of the mean per-network pps
};

/// Called for each trial's Scenario after construction, before run()
/// (nomc-sim uses it to attach the event trace to trial 0).
using TrialHook = std::function<void(int trial, net::Scenario&)>;

/// One trial's numbers, per network, before the seed-ordered mean.
struct TrialResult {
  std::vector<double> pps, prr, backoffs_per_s, drops_per_s;
  double overall_pps = 0.0;
};

/// Run trial `trial` of an operating point: one deployment seeded
/// seed + trial * 1000003. The params must be pre-validated (parser or cli
/// helpers); run_trial asserts on an unknown scheme/topology.
///
/// `trial_workers` != 1 runs the trial through net::ShardedScenario (spatial
/// region shards advanced in conservative lookahead windows) instead of the
/// serial net::Scenario. It is a wall-clock knob with resolve_jobs semantics
/// (0 = all hardware threads): results are bit-identical at every value, so
/// it is deliberately NOT part of PointParams and never enters the record.
/// The hook fires only on the serial path (it receives a net::Scenario,
/// which a sharded trial does not build).
[[nodiscard]] TrialResult run_trial(const PointParams& params, int trial,
                                    const TrialHook& pre_run = {}, int trial_workers = 1);

/// The point's result: the mean of all its trials (trials[i] is trial i),
/// summed in seed order.
[[nodiscard]] PointResult merge_trials(const std::vector<TrialResult>& trials);

/// Run one operating point: run_trial for each trial on `runner`, then merge.
[[nodiscard]] PointResult run_point(const PointParams& params, sim::ParallelRunner& runner,
                                    const TrialHook& pre_run = {}, int trial_workers = 1);

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
  /// Worker threads inside each trial (region-sharded execution; see
  /// run_trial). Like jobs/point_jobs this is an execution knob only — the
  /// store bytes do not depend on it, and it is not part of the spec hash.
  int trial_workers = 1;
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
