// nomc_perfbench — the workload driver behind perfbench/run.py.
//
//   nomc_perfbench --workload paper_figs|city_field|service_mix --seed N
//                  --seconds S --trace 0|1 --work-dir DIR [--spans FILE] [--toy]
//
// Runs from the repository root (it reads examples/campaigns and
// tests/golden), measures one workload, and prints one JSON line on stdout:
// the measured metrics, output digests, the attempted/failed counts of its
// operations and correctness checks, and the build provenance it knows.
// run.py turns that into the benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "common.hpp"
#include "exp/result_store.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_figs|city_field|service_mix --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--spans FILE] [--toy]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      args.toy = true;
      continue;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (args.work_dir.empty()) return usage(argv[0]);

  perfbench::Report report;
  perfbench::Tracer tracer{args.trace};
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  const int root = tracer.begin(args.workload);
  if (args.workload == "paper_figs") {
    perfbench::run_paper_figs(args, report, tracer);
  } else if (args.workload == "city_field") {
    perfbench::run_city_field(args, report, tracer);
  } else if (args.workload == "service_mix") {
    perfbench::run_service_mix(args, report, tracer);
  } else {
    return usage(argv[0]);
  }
  tracer.end(root);
  if (args.trace) report.set("phy.ber_ns", perfbench::measure_ber_ns());
  report.set("peak_rss_mb", perfbench::peak_rss_mb());
  std::filesystem::remove_all(args.work_dir, ec);

  if (args.trace && !spans_path.empty()) {
    report.check(tracer.write(spans_path), "write spans to " + spans_path);
  }

  std::string out = "{\"attempted\":" + std::to_string(report.attempted) +
                    ",\"failed\":" + std::to_string(report.failed) +
                    ",\"gates\":" + std::to_string(report.gates) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    if (!first) out += ',';
    first = false;
    nomc::exp::json_append_string(out, name);
    out += ':';
    nomc::exp::json_append_double(out, value);
  }
  out += "},\"digests\":{";
  first = true;
  for (const auto& [name, value] : report.digests) {
    if (!first) out += ',';
    first = false;
    nomc::exp::json_append_string(out, name);
    out += ':';
    nomc::exp::json_append_string(out, value);
  }
  out += "},\"provenance\":{\"compiler\":";
  nomc::exp::json_append_string(out, NOMC_PERFBENCH_COMPILER);
  out += ",\"build_type\":";
  nomc::exp::json_append_string(out, NOMC_PERFBENCH_BUILD_TYPE);
  out += ",\"hardware_threads\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"nproc\":" + std::to_string(perfbench::nproc()) +
         ",\"spans\":" + std::to_string(tracer.size()) + "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
