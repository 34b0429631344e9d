// campaign_throughput — microbenchmark for the flat (point, trial) campaign executor.
//
// Times exp::run_campaign end-to-end (grid expansion, point execution,
// ordered checkpointing, JSONL writes) on a fixed small sweep at several
// (jobs, point-jobs) splits, and emits the machine-readable BENCH_*.json
// format documented in docs/parallel_runner.md. One "op" is one computed
// sweep point, so ops_per_second is campaign points/second.
//
//   campaign_throughput --out BENCH_campaign.json --min-ms 500
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/args.hpp"
#include "cli/options.hpp"
#include "exp/campaign.hpp"
#include "exp/spec.hpp"
#include "sim/parallel.hpp"

namespace {

using namespace nomc;
using Clock = std::chrono::steady_clock;

// 4 points x 2 trials of a 2-network deployment: big enough that the pools
// have work to interleave, small enough to repeat until --min-ms.
constexpr const char* kSpecText =
    "name = bench_campaign\n"
    "topology = dense\n"
    "power = 0\n"
    "channels = 2\n"
    "warmup = 0.1\n"
    "measure = 0.3\n"
    "trials = 2\n"
    "sweep scheme = fixed dcn\n"
    "sweep cfd = 3 5\n";

std::string temp_store_path() {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string{tmpdir != nullptr ? tmpdir : "/tmp"} + "/bench_campaign_store.jsonl";
}

struct BenchResult {
  std::string name;
  long long points = 0;
  double ns_per_point = 0.0;
};

BenchResult measure_split(const exp::CampaignSpec& spec, const std::string& store,
                          int jobs, int point_jobs, double min_ms) {
  exp::CampaignOptions options;
  options.mode = exp::CampaignOptions::Mode::kOverwrite;
  options.jobs = jobs;
  options.point_jobs = point_jobs;
  options.quiet = true;

  const long long grid = static_cast<long long>(exp::expand_grid(spec).size());
  long long points = 0;
  const auto start = Clock::now();
  double elapsed_ms = 0.0;
  do {
    exp::CampaignStats stats;
    std::string error;
    if (!exp::run_campaign(spec, store, options, &stats, error)) {
      std::fprintf(stderr, "run_campaign failed: %s\n", error.c_str());
      std::exit(1);
    }
    points += grid;
    elapsed_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  } while (elapsed_ms < min_ms);

  BenchResult result;
  result.name = "campaign_4pt/jobs=" + std::to_string(jobs) +
                ",point_jobs=" + std::to_string(point_jobs);
  result.points = points;
  result.ns_per_point = elapsed_ms * 1e6 / static_cast<double>(points);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args;
  args.add_string("out", "BENCH_campaign.json", "output JSON path");
  args.add_double("min-ms", 500.0, "minimum measured wall time per split (ms)");
  if (const auto exit_code = cli::parse_standard(args, argc, argv, argv[0])) {
    return *exit_code;
  }
  const double min_ms = args.get_double("min-ms");

  exp::CampaignSpec spec;
  exp::SpecError spec_error;
  if (!exp::parse_campaign(kSpecText, spec, spec_error)) {
    std::fprintf(stderr, "embedded spec: %s\n", spec_error.str().c_str());
    return 1;
  }
  const std::string store = temp_store_path();

  // Serial baseline, trial-level only, point-level only, and an even split —
  // deduplicated so a 1-core machine measures just the baseline.
  const int hw = sim::resolve_jobs(0);
  std::vector<std::pair<int, int>> splits{{1, 1}};
  if (hw > 1) {
    splits.emplace_back(hw, 1);
    splits.emplace_back(1, hw);
    const int half = hw / 2;
    if (half > 1) splits.emplace_back(half, 2);
  }

  std::vector<BenchResult> results;
  for (const auto& [jobs, point_jobs] : splits) {
    results.push_back(measure_split(spec, store, jobs, point_jobs, min_ms));
  }
  std::remove(store.c_str());
  std::remove((store + ".timing").c_str());

  std::FILE* out = std::fopen(args.get_string("out").c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", args.get_string("out").c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"tool\": \"campaign_throughput\",\n  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"iterations\": %lld, \"ns_per_op\": %.2f, "
                 "\"ops_per_second\": %.1f}%s\n",
                 r.name.c_str(), r.points, r.ns_per_point, 1e9 / r.ns_per_point,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  for (const BenchResult& r : results) {
    std::printf("%-40s %8lld points  %10.2f ms/point\n", r.name.c_str(), r.points,
                r.ns_per_point / 1e6);
  }
  std::printf("\nwritten to %s\n", args.get_string("out").c_str());
  return 0;
}
