// End-to-end campaign-service test through the REAL binaries: fork/exec
// nomc-serve on a temp socket, drive it with the nomc-campaign client CLI,
// and check the acceptance contract —
//   (a) resubmitting an identical spec simulates zero points (the status
//       counters show pure cache hits),
//   (b) the server-written JSONL store is byte-identical to a local
//       `nomc-campaign run` store of the same spec,
//   (c) a query served through the .idx sidecar returns the same record as
//       a linear scan of the store.
//
// nomc-lint: allow-file(svc-raw-fork) — spawning the real binaries IS the
// test; nothing else in the repo spawns processes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "exp/store_index.hpp"
#include "svc/client.hpp"

namespace nomc::svc {
namespace {

constexpr const char* kSocket = "/tmp/nomc_e2e.sock";

std::string work_dir() { return ::testing::TempDir() + "nomc_svc_e2e"; }

/// fork/exec one of the real tools, stdout/stderr silenced; returns the
/// child's exit code (-1 on spawn failure / abnormal exit).
int run_tool(const std::vector<std::string>& args) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string out;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) out.append(buffer, got);
  std::fclose(file);
  return out;
}

/// Ask the server for its lifetime counters.
bool fetch_counters(Client& client, std::uint64_t& computed, std::uint64_t& cache_hits,
                    std::string& error) {
  exp::JsonValue reply;
  if (!client.call(R"({"op":"status"})", reply, error)) return false;
  const exp::JsonValue* ok = reply.find("ok");
  if (ok == nullptr || !ok->boolean) {
    error = "status returned not-ok";
    return false;
  }
  computed = static_cast<std::uint64_t>(reply.find("computed")->number);
  cache_hits = static_cast<std::uint64_t>(reply.find("cache_hits")->number);
  return true;
}

TEST(ServiceE2E, SubmitCacheQueryExportShutdown) {
  const std::string data_dir = work_dir();
  const std::string spec_path = NOMC_E2E_SPEC;
  // A fresh data dir every run: a stale cache from a previous run would turn
  // the "first submission computes everything" phase into cache hits.
  std::filesystem::remove_all(data_dir);

  exp::CampaignSpec spec;
  exp::SpecError spec_error;
  ASSERT_TRUE(exp::load_campaign(spec_path, spec, spec_error)) << spec_error.str();
  const std::string hash = exp::spec_hash(spec);
  const int points = static_cast<int>(exp::expand_grid(spec).size());
  ASSERT_GT(points, 0);

  // Start the real daemon.
  const pid_t server_pid = ::fork();
  ASSERT_GE(server_pid, 0);
  if (server_pid == 0) {
    std::freopen("/dev/null", "w", stdout);
    ::execl(NOMC_SERVE_BIN, NOMC_SERVE_BIN, "--socket", kSocket, "--data-dir",
            data_dir.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);
  }

  // Wait for the socket to accept (the daemon needs a moment to bind).
  Client probe;
  std::string error;
  bool up = false;
  for (int attempt = 0; attempt < 200 && !up; ++attempt) {
    up = probe.connect(kSocket, error);
    if (!up) ::usleep(50 * 1000);
  }
  ASSERT_TRUE(up) << error;

  // First submission computes every point...
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "submit", spec_path, "--server", kSocket}), 0);
  std::uint64_t computed = 0;
  std::uint64_t cache_hits = 0;
  ASSERT_TRUE(fetch_counters(probe, computed, cache_hits, error)) << error;
  EXPECT_EQ(computed, static_cast<std::uint64_t>(points));
  EXPECT_EQ(cache_hits, 0u);

  // ...(a) the identical resubmission simulates zero points: computed does
  // not move, every point lands as a cache hit in the status reply.
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "submit", spec_path, "--server", kSocket}), 0);
  ASSERT_TRUE(fetch_counters(probe, computed, cache_hits, error)) << error;
  EXPECT_EQ(computed, static_cast<std::uint64_t>(points));
  EXPECT_EQ(cache_hits, static_cast<std::uint64_t>(points));

  // (b) The server's store is byte-identical to a local run of the spec.
  const std::string local_store = work_dir() + "_local.jsonl";
  std::remove(local_store.c_str());
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "run", spec_path, "--out", local_store,
                      "--quiet"}),
            0);
  const std::string server_store = data_dir + "/" + hash + ".jsonl";
  const std::string server_bytes = read_file(server_store);
  ASSERT_FALSE(server_bytes.empty());
  EXPECT_EQ(server_bytes, read_file(local_store));

  // (c) A query through the .idx sidecar == the linear-scan record.
  exp::StoreScan scan;
  ASSERT_TRUE(exp::scan_store(server_store, hash, scan, error)) << error;
  exp::StoreIndex index;
  ASSERT_TRUE(index.open(server_store, hash, error)) << error;
  ASSERT_TRUE(std::fopen(exp::StoreIndex::index_path(server_store).c_str(), "rb") !=
              nullptr);  // the sidecar actually exists on disk
  for (const exp::ResultRecord& record : scan.records) {
    const exp::StoreIndex::Entry* entry = index.find(hash, record.point);
    ASSERT_NE(entry, nullptr) << record.point;
    std::string via_index;
    ASSERT_TRUE(index.read_line(*entry, via_index, error)) << error;
    exp::JsonValue reply;
    const std::string query = "{\"op\":\"query\",\"spec_hash\":\"" + hash +
                              "\",\"point\":" + std::to_string(record.point) + "}";
    ASSERT_TRUE(probe.call(query, reply, error)) << error;
    ASSERT_TRUE(reply.find("ok")->boolean);
    EXPECT_EQ(reply.find("record")->string, via_index);  // server == index == scan
  }

  // The CLI query path agrees too (spot check one point).
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "query", hash, "--server", kSocket, "--point",
                      "0"}),
            0);
  // And the streamed export completes against the running server.
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "export", hash, "--server", kSocket, "--out",
                      work_dir() + "_served.csv"}),
            0);
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "export-csv", local_store, "--out",
                      work_dir() + "_local.csv"}),
            0);
  EXPECT_EQ(read_file(work_dir() + "_served.csv"), read_file(work_dir() + "_local.csv"));
  EXPECT_FALSE(read_file(work_dir() + "_served.csv").empty());

  // Clean shutdown through the CLI; the daemon must exit 0 on its own.
  probe.close();
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "shutdown", kSocket}), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(server_pid, &status, 0), server_pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ServiceE2E, WorkerProcessOptionsAreGone) {
  // Submits always compute in-process; the options of the removed
  // worker-process sharding are unknown and exit with a usage error before
  // the daemon binds anything.
  const std::vector<std::string> removed = {"--workers", "--worker-bin", "--lease-points",
                                            "--lease-timeout-ms", "--worker-retries"};
  for (const std::string& option : removed) {
    EXPECT_EQ(run_tool({NOMC_SERVE_BIN, "--socket", "/tmp/nomc_e2e_gone.sock", option, "1"}), 2)
        << option;
  }
  // ...and nomc-campaign has no hidden worker mode left.
  EXPECT_EQ(run_tool({NOMC_CAMPAIGN_BIN, "worker", NOMC_E2E_SPEC}), 2);
}

}  // namespace
}  // namespace nomc::svc
