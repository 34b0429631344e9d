// service_throughput — microbenchmark for the campaign service (src/svc)
// and the store index sidecar (exp::StoreIndex).
//
// Two families, emitted in the BENCH_*.json format documented in
// docs/parallel_runner.md:
//
//   submit_cold       one op = one submit of a never-seen spec over the Unix
//                     socket: parse, hash, simulate, checkpoint, reply.
//   submit_cache_hit  one op = one submit of an already-stored spec: the
//                     server answers from the (spec_hash, point) cache
//                     without simulating. The cold/hot ratio is the price
//                     the cache saves every duplicate client.
//   lookup_indexed    one op = one point query against an open StoreIndex
//                     (ordered-map find + one seek/read of the record line).
//   lookup_linear     the same query answered the pre-index way: a full
//                     scan_store pass that parses every record. The gap is
//                     the reason the .idx sidecar exists; it must widen with
//                     the record count (10k vs 100k here).
//
// The server runs in-process and is driven through Server::step(), the same
// single-threaded idiom the svc tests use — no background thread, so the
// socket round-trip is measured without scheduler noise.
//
//   service_throughput --out BENCH_service.json --min-ms 300
//   service_throughput --smoke --out BENCH_service_smoke.json
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cli/args.hpp"
#include "cli/options.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "exp/store_index.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace {

using namespace nomc;
using Clock = std::chrono::steady_clock;

// One sweep point, sub-second simulated time: the cold path still pays the
// full submit pipeline (parse, hash, simulate, checkpoint) per op.
std::string spec_text(const std::string& name) {
  return "name = " + name +
         "\n"
         "channels = 2\n"
         "links = 1\n"
         "power = 0\n"
         "warmup = 0.05\n"
         "measure = 0.1\n"
         "trials = 1\n"
         "sweep links = 1\n";
}

std::string temp_root() {
  const char* tmpdir = std::getenv("TMPDIR");
  return std::string{tmpdir != nullptr ? tmpdir : "/tmp"};
}

struct BenchResult {
  std::string name;
  long long ops = 0;
  double ns_per_op = 0.0;
};

/// Drain the poll loop without sleeping: timeout 0 keeps idle steps cheap.
void pump(svc::Server& server, int steps = 8) {
  std::string error;
  for (int i = 0; i < steps; ++i) {
    if (!server.step(/*timeout_ms=*/0, error)) {
      std::fprintf(stderr, "server step failed: %s\n", error.c_str());
      std::exit(1);
    }
  }
}

/// send + pump + recv — the request fits the socket buffer, so the blocking
/// send returns before the server polls (same idiom as tests/svc).
std::string roundtrip(svc::Server& server, svc::Client& client, const std::string& request) {
  std::string error;
  if (!client.send_line(request, error)) {
    std::fprintf(stderr, "send failed: %s\n", error.c_str());
    std::exit(1);
  }
  pump(server);
  std::string line;
  if (!client.recv_line(line, error)) {
    std::fprintf(stderr, "recv failed: %s\n", error.c_str());
    std::exit(1);
  }
  return line;
}

std::string submit_request(const std::string& spec) {
  std::string request = "{\"op\":\"submit\",\"spec\":";
  exp::json_append_string(request, spec);
  request += '}';
  return request;
}

void expect_ok(const std::string& reply) {
  exp::JsonValue value;
  std::string error;
  if (!svc::parse_reply(reply, value, error) || value.find("ok") == nullptr ||
      !value.find("ok")->boolean) {
    std::fprintf(stderr, "server rejected a bench request: %s\n", reply.c_str());
    std::exit(1);
  }
}

/// Cold vs cache-hit submit QPS over the socket, one in-process server.
void measure_submits(double min_ms, std::vector<BenchResult>& results) {
  svc::Server server;
  svc::ServerConfig config;
  config.socket_path = "/tmp/nomc_bench_svc.sock";
  config.data_dir = temp_root() + "/nomc_bench_svc_data";
  // A stale cache from an earlier run would turn "cold" submits into hits.
  std::filesystem::remove_all(config.data_dir);
  std::string error;
  if (!server.open(config, error)) {
    std::fprintf(stderr, "server open failed: %s\n", error.c_str());
    std::exit(1);
  }
  svc::Client client;
  if (!client.connect(config.socket_path, error)) {
    std::fprintf(stderr, "client connect failed: %s\n", error.c_str());
    std::exit(1);
  }
  pump(server);  // pick the connection up before timing starts

  // Cold: every op submits a spec the server has never seen. The name is
  // part of the canonical spec, so each iteration gets a fresh spec_hash
  // while the simulation workload stays constant.
  long long cold_ops = 0;
  const auto cold_start = Clock::now();
  double cold_ms = 0.0;
  do {
    expect_ok(roundtrip(server, client,
                        submit_request(spec_text("bench_cold_" + std::to_string(cold_ops)))));
    ++cold_ops;
    cold_ms = std::chrono::duration<double, std::milli>(Clock::now() - cold_start).count();
  } while (cold_ms < min_ms);
  results.push_back({"submit_cold", cold_ops, cold_ms * 1e6 / static_cast<double>(cold_ops)});

  // Hot: one warm-up submit stores the spec, then every timed op is a pure
  // (spec_hash, point) cache hit — zero simulation.
  const std::string hot = submit_request(spec_text("bench_hot"));
  expect_ok(roundtrip(server, client, hot));
  long long hot_ops = 0;
  const auto hot_start = Clock::now();
  double hot_ms = 0.0;
  do {
    expect_ok(roundtrip(server, client, hot));
    ++hot_ops;
    hot_ms = std::chrono::duration<double, std::milli>(Clock::now() - hot_start).count();
  } while (hot_ms < min_ms);
  results.push_back(
      {"submit_cache_hit", hot_ops, hot_ms * 1e6 / static_cast<double>(hot_ops)});
}

constexpr const char* kSyntheticHash = "00112233aabbccdd";

/// A well-formed v1 record line (with trailing newline) for `point`.
std::string record_line(int point) {
  return R"({"v":1,"campaign":"bench","spec_hash":")" + std::string{kSyntheticHash} +
         R"(","point":)" + std::to_string(point) +
         R"(,"sweep":{"links":"1"},"params":{},"per_network":{"pps":[)" +
         std::to_string(point % 97) +
         R"(],"prr":[1],"backoffs_per_s":[0],"drops_per_s":[0]},)" +
         R"("overall_pps":1,"jain":1})" + "\n";
}

/// Indexed vs linear single-record retrieval on a synthetic store of
/// `records` lines.
void measure_lookups(int records, double min_ms, std::vector<BenchResult>& results) {
  const std::string store =
      temp_root() + "/nomc_bench_idx_" + std::to_string(records) + ".jsonl";
  std::FILE* out = std::fopen(store.c_str(), "wb");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", store.c_str());
    std::exit(1);
  }
  for (int point = 0; point < records; ++point) {
    const std::string line = record_line(point);
    std::fwrite(line.data(), 1, line.size(), out);
  }
  std::fclose(out);
  std::remove(exp::StoreIndex::index_path(store).c_str());

  std::string error;
  exp::StoreIndex index;
  if (!index.open(store, kSyntheticHash, error)) {  // builds + persists the sidecar
    std::fprintf(stderr, "index open failed: %s\n", error.c_str());
    std::exit(1);
  }
  const std::string suffix = "/records=" + std::to_string(records);

  // Indexed: the steady-state server path — the index is already open, one
  // op is find() + a single seek/read of the record line.
  long long indexed_ops = 0;
  int next_point = 0;
  const auto indexed_start = Clock::now();
  double indexed_ms = 0.0;
  do {
    const exp::StoreIndex::Entry* entry = index.find(kSyntheticHash, next_point);
    std::string line;
    if (entry == nullptr || !index.read_line(*entry, line, error)) {
      std::fprintf(stderr, "indexed lookup failed at point %d\n", next_point);
      std::exit(1);
    }
    next_point = (next_point + 7919) % records;  // stride coprime to the count
    ++indexed_ops;
    indexed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - indexed_start).count();
  } while (indexed_ms < min_ms);
  results.push_back({"lookup_indexed" + suffix, indexed_ops,
                     indexed_ms * 1e6 / static_cast<double>(indexed_ops)});

  // Linear: what query cost before the sidecar existed — scan_store parses
  // every record, then the one asked for is picked out.
  long long linear_ops = 0;
  next_point = 0;
  const auto linear_start = Clock::now();
  double linear_ms = 0.0;
  do {
    exp::StoreScan scan;
    if (!exp::scan_store(store, kSyntheticHash, scan, error)) {
      std::fprintf(stderr, "scan_store failed: %s\n", error.c_str());
      std::exit(1);
    }
    bool found = false;
    for (const exp::ResultRecord& record : scan.records) {
      if (record.point == next_point) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "linear lookup lost point %d\n", next_point);
      std::exit(1);
    }
    next_point = (next_point + 7919) % records;
    ++linear_ops;
    linear_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - linear_start).count();
  } while (linear_ms < min_ms);
  results.push_back({"lookup_linear" + suffix, linear_ops,
                     linear_ms * 1e6 / static_cast<double>(linear_ops)});

  std::remove(store.c_str());
  std::remove(exp::StoreIndex::index_path(store).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  cli::ArgParser args;
  args.add_string("out", "BENCH_service.json", "output JSON path");
  args.add_double("min-ms", 300.0, "minimum measured wall time per benchmark (ms)");
  args.add_flag("smoke", "tiny sizes and budgets (CI smoke mode)");
  if (const auto exit_code = cli::parse_standard(args, argc, argv, argv[0])) {
    return *exit_code;
  }
  const bool smoke = args.get_flag("smoke");
  const double min_ms = smoke ? 1.0 : args.get_double("min-ms");
  const std::vector<int> record_counts =
      smoke ? std::vector<int>{1000} : std::vector<int>{10000, 100000};

  std::vector<BenchResult> results;
  measure_submits(min_ms, results);
  for (const int records : record_counts) measure_lookups(records, min_ms, results);

  std::FILE* out = std::fopen(args.get_string("out").c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", args.get_string("out").c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"tool\": \"service_throughput\",\n  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
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
    std::printf("%-36s %10lld ops  %12.2f us/op\n", r.name.c_str(), r.ops,
                r.ns_per_op / 1e3);
  }
  std::printf("\nwritten to %s\n", args.get_string("out").c_str());
  return 0;
}
