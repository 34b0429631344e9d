// lint_throughput — microbenchmark for the nomc-lint whole-program driver
// (lint::run_lint), writing the BENCH_lint.json shape documented in
// docs/static_analysis.md.
//
// One op is one full repo scan: collect files, tokenize + per-file rules in
// parallel, then the serial whole-program passes (include-graph rules,
// stale-suppress, baseline). Benchmarks scan_jobs_{1,2,4,8} show how the
// per-file stage scales on the ParallelRunner while the output stays
// byte-identical; the files/s column on stdout puts the numbers in
// repo-size terms.
//
//   lint_throughput --out BENCH_lint.json --min-ms 300
//   lint_throughput --smoke --out BENCH_lint_smoke.json
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.hpp"
#include "cli/options.hpp"
#include "lint/driver.hpp"

namespace {

using namespace nomc;
using Clock = std::chrono::steady_clock;

struct BenchResult {
  std::string name;
  long long ops = 0;
  double ns_per_op = 0.0;
};

lint::RunOptions repo_options(int jobs) {
  lint::RunOptions options;
  const std::string root{NOMC_LINT_REPO_ROOT};
  options.roots = {root + "/src", root + "/tools", root + "/bench", root + "/tests"};
  options.root_prefix = root;
  options.layers_path = root + "/tools/nomc_layers.txt";
  options.baseline_path = root + "/tools/nomc_lint.baseline";
  options.jobs = jobs;
  return options;
}

/// Repeat full scans until `min_ms` of wall time has elapsed.
BenchResult measure_scan(int jobs, double min_ms, std::size_t& file_count) {
  BenchResult result;
  result.name = "scan_jobs_" + std::to_string(jobs);
  const auto begin = Clock::now();
  double elapsed_ns = 0.0;
  while (elapsed_ns < min_ms * 1e6) {
    lint::RunResult run;
    std::string error;
    if (!lint::run_lint(repo_options(jobs), run, error)) {
      std::fprintf(stderr, "lint run failed: %s\n", error.c_str());
      std::exit(1);
    }
    file_count = run.file_count;
    ++result.ops;
    elapsed_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - begin).count());
  }
  result.ns_per_op = elapsed_ns / static_cast<double>(result.ops);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args;
  args.add_string("out", "BENCH_lint.json", "output JSON path");
  args.add_double("min-ms", 300.0, "minimum measured wall time per benchmark (ms)");
  args.add_flag("smoke", "tiny budget (CI smoke mode)");
  if (const auto exit_code = cli::parse_standard(args, argc, argv, argv[0])) {
    return *exit_code;
  }
  const double min_ms = args.get_flag("smoke") ? 1.0 : args.get_double("min-ms");

  std::vector<BenchResult> results;
  std::size_t file_count = 0;
  for (const int jobs : {1, 2, 4, 8}) {
    results.push_back(measure_scan(jobs, min_ms, file_count));
  }

  std::FILE* out = std::fopen(args.get_string("out").c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", args.get_string("out").c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"tool\": \"lint_throughput\",\n  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"files_per_scan\": %zu,\n", file_count);
  std::fprintf(out,
               "  \"note\": \"one op is one full repo scan through lint::run_lint; the "
               "whole-program passes are serial, so jobs scaling bounds out at the "
               "per-file share of the scan\",\n");
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"iterations\": %lld, \"ns_per_op\": %.2f, "
                 "\"ops_per_second\": %.1f}%s\n",
                 r.name.c_str(), r.ops, r.ns_per_op, 1e9 / r.ns_per_op,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  for (const BenchResult& r : results) {
    std::printf("%-24s %8lld ops  %12.2f ms/op  (%7.1f files/s)\n", r.name.c_str(), r.ops,
                r.ns_per_op / 1e6, static_cast<double>(file_count) / (r.ns_per_op / 1e9));
  }
  std::printf("\nwritten to %s\n", args.get_string("out").c_str());
  return 0;
}
