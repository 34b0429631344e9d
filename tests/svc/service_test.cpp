// In-process service tests: a real Server on a real Unix socket, driven
// single-threadedly through step() — no background thread, so the suite
// stays deterministic and sanitizer-friendly. Covers the cache-dedupe
// contract (two clients, same spec: one simulation run, identical replies),
// the malformed-input suite (connection must survive every bad request),
// byte-identity of server-written stores with local run_campaign output,
// and the query/export/shutdown ops.
#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "exp/store_index.hpp"
#include "svc/client.hpp"

namespace nomc::svc {
namespace {

// Two sweep points, sub-second simulated time: fast enough to run twice.
constexpr const char* kTinySpec =
    "name = svc_tiny\n"
    "channels = 2\n"
    "links = 1\n"
    "power = 0\n"
    "warmup = 0.1\n"
    "measure = 0.2\n"
    "trials = 1\n"
    "sweep links = 1 2\n";

std::string temp_dir(const std::string& name) {
  return ::testing::TempDir() + "nomc_svc_" + name;
}

/// A data dir emptied of any previous run's stores — the cache-dedupe
/// assertions count simulated points, so stale stores would skew them.
std::string fresh_dir(const std::string& name) {
  const std::string dir = temp_dir(name);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Sockets must fit sockaddr_un (~107 bytes); keep them in /tmp directly.
std::string socket_path(const std::string& name) { return "/tmp/nomc_" + name + ".sock"; }

/// Pump the poll loop: a request needs one step to accept the connection and
/// one to read + reply, plus slack for partial writes.
void pump(Server& server, int steps = 6) {
  std::string error;
  for (int i = 0; i < steps; ++i) ASSERT_TRUE(server.step(/*timeout_ms=*/20, error)) << error;
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

std::string submit_request(const std::string& spec_text) {
  std::string request = "{\"op\":\"submit\",\"spec\":";
  exp::json_append_string(request, spec_text);
  request += '}';
  return request;
}

/// send + pump + recv: the single-threaded request/reply idiom. The request
/// is small enough to fit the socket buffer, so the blocking send returns
/// before the server has polled.
std::string roundtrip(Server& server, Client& client, const std::string& request) {
  std::string error;
  EXPECT_TRUE(client.send_line(request, error)) << error;
  pump(server);
  std::string line;
  EXPECT_TRUE(client.recv_line(line, error)) << error;
  return line;
}

TEST(Service, PingPong) {
  Server server;
  ServerConfig config;
  config.socket_path = socket_path("ping");
  config.data_dir = fresh_dir("ping");
  std::string error;
  ASSERT_TRUE(server.open(config, error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(config.socket_path, error)) << error;
  EXPECT_EQ(roundtrip(server, client, R"({"op":"ping"})"), pong_reply());
  EXPECT_EQ(server.sessions(), 1u);
}

TEST(Service, MalformedInputsGetErrorsAndTheConnectionSurvives) {
  Server server;
  ServerConfig config;
  config.socket_path = socket_path("bad");
  config.data_dir = fresh_dir("bad");
  config.max_line = 256;  // small cap so the oversized case is cheap
  std::string error;
  ASSERT_TRUE(server.open(config, error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(config.socket_path, error)) << error;

  const auto expect_error = [&](const std::string& request, const char* needle) {
    const std::string reply = roundtrip(server, client, request);
    exp::JsonValue value;
    ASSERT_TRUE(parse_reply(reply, value, error)) << reply;
    ASSERT_NE(value.find("ok"), nullptr);
    EXPECT_FALSE(value.find("ok")->boolean) << reply;
    ASSERT_NE(value.find("error"), nullptr);
    EXPECT_NE(value.find("error")->string.find(needle), std::string::npos) << reply;
    // The session survived: a ping on the same connection still answers.
    EXPECT_EQ(roundtrip(server, client, R"({"op":"ping"})"), pong_reply());
  };

  expect_error("this is not json", "bad JSON");
  expect_error("[1,2,3]", "object");
  expect_error(R"({"spec":"x"})", "op");
  expect_error(R"({"op":"frobnicate"})", "unknown op");
  expect_error(R"({"op":"submit"})", "spec");
  expect_error(R"({"op":"submit","spec":"sweep bogus = 1\n"})", "bad spec");
  expect_error(R"({"op":"query","spec_hash":"00"})", "point");
  expect_error(R"({"op":"query","spec_hash":"beefbeefbeefbeef","point":0})", "unknown");
  expect_error(R"({"op":"export","spec_hash":"beefbeefbeefbeef"})", "unknown");
  expect_error(std::string(300, 'x'), "exceeds");
  EXPECT_EQ(server.sessions(), 1u);  // one connection served all of it
}

TEST(Service, TwoClientsSameSpecOneSimulationIdenticalReplies) {
  Server server;
  ServerConfig config;
  config.socket_path = socket_path("dedupe");
  config.data_dir = fresh_dir("dedupe");
  std::string error;
  ASSERT_TRUE(server.open(config, error)) << error;

  Client first;
  Client second;
  ASSERT_TRUE(first.connect(config.socket_path, error)) << error;
  ASSERT_TRUE(second.connect(config.socket_path, error)) << error;

  // Both submissions are queued before the server runs anything; it serves
  // them in arrival order, so the second finds every point already stored.
  ASSERT_TRUE(first.send_line(submit_request(kTinySpec), error)) << error;
  ASSERT_TRUE(second.send_line(submit_request(kTinySpec), error)) << error;
  pump(server, 10);
  std::string reply_first;
  std::string reply_second;
  ASSERT_TRUE(first.recv_line(reply_first, error)) << error;
  ASSERT_TRUE(second.recv_line(reply_second, error)) << error;

  EXPECT_EQ(reply_first, reply_second);  // byte-identical dedupe contract
  EXPECT_EQ(server.submissions(), 2u);
  EXPECT_EQ(server.computed(), 2u);    // the grid simulated exactly once
  EXPECT_EQ(server.cache_hits(), 2u);  // the resubmission hit on every point

  // The split is visible to clients through the status counters.
  exp::JsonValue status;
  ASSERT_TRUE(parse_reply(roundtrip(server, first, R"({"op":"status"})"), status, error));
  EXPECT_EQ(static_cast<int>(status.find("computed")->number), 2);
  EXPECT_EQ(static_cast<int>(status.find("cache_hits")->number), 2);
  EXPECT_EQ(static_cast<int>(status.find("submissions")->number), 2);
  EXPECT_EQ(static_cast<int>(status.find("campaigns")->number), 1);
}

TEST(Service, ServerStoreIsByteIdenticalToLocalRun) {
  Server server;
  ServerConfig config;
  config.socket_path = socket_path("bytes");
  config.data_dir = fresh_dir("bytes");
  std::string error;
  ASSERT_TRUE(server.open(config, error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(config.socket_path, error)) << error;
  exp::JsonValue reply;
  ASSERT_TRUE(parse_reply(roundtrip(server, client, submit_request(kTinySpec)), reply, error));
  ASSERT_TRUE(reply.find("ok")->boolean);
  const std::string hash = reply.find("spec_hash")->string;

  exp::CampaignSpec spec;
  exp::SpecError spec_error;
  ASSERT_TRUE(exp::parse_campaign(kTinySpec, spec, spec_error)) << spec_error.str();
  ASSERT_EQ(exp::spec_hash(spec), hash);
  const std::string local = temp_dir("bytes_local.jsonl");
  std::remove(local.c_str());
  exp::CampaignOptions options;
  options.quiet = true;
  exp::CampaignStats stats;
  ASSERT_TRUE(exp::run_campaign(spec, local, options, &stats, error)) << error;

  const std::string server_bytes = read_file(config.data_dir + "/" + hash + ".jsonl");
  const std::string local_bytes = read_file(local);
  ASSERT_FALSE(server_bytes.empty());
  EXPECT_EQ(server_bytes, local_bytes);

  // query returns the verbatim record line, equal to what a linear scan sees.
  exp::StoreScan scan;
  ASSERT_TRUE(exp::scan_store(local, hash, scan, error)) << error;
  const std::string query =
      "{\"op\":\"query\",\"spec_hash\":\"" + hash + "\",\"point\":1}";
  exp::JsonValue queried;
  ASSERT_TRUE(parse_reply(roundtrip(server, client, query), queried, error));
  ASSERT_TRUE(queried.find("ok")->boolean);
  std::string linear_line;
  for (const exp::ResultRecord& record : scan.records) {
    if (record.point == 1) {
      // Re-read the verbatim line through the index for byte equality.
      exp::StoreIndex index;
      ASSERT_TRUE(index.open(local, hash, error)) << error;
      ASSERT_TRUE(index.read_line(*index.find(hash, 1), linear_line, error)) << error;
    }
  }
  EXPECT_EQ(queried.find("record")->string, linear_line);
}

TEST(Service, ExportStreamsTheExactCsvBytes) {
  Server server;
  ServerConfig config;
  config.socket_path = socket_path("export");
  config.data_dir = fresh_dir("export");
  std::string error;
  ASSERT_TRUE(server.open(config, error)) << error;

  Client client;
  ASSERT_TRUE(client.connect(config.socket_path, error)) << error;
  exp::JsonValue reply;
  ASSERT_TRUE(parse_reply(roundtrip(server, client, submit_request(kTinySpec)), reply, error));
  ASSERT_TRUE(reply.find("ok")->boolean);
  const std::string hash = reply.find("spec_hash")->string;

  ASSERT_TRUE(client.send_line("{\"op\":\"export\",\"spec_hash\":\"" + hash + "\"}", error));
  pump(server);
  std::string streamed;
  std::uint64_t rows = 0;
  while (true) {
    std::string line;
    ASSERT_TRUE(client.recv_line(line, error)) << error;
    exp::JsonValue value;
    ASSERT_TRUE(parse_reply(line, value, error)) << line;
    if (const exp::JsonValue* csv = value.find("csv"); csv != nullptr) {
      streamed += csv->string;
      streamed += '\n';
      continue;
    }
    ASSERT_TRUE(value.find("ok")->boolean) << line;
    rows = static_cast<std::uint64_t>(value.find("rows")->number);
    break;
  }

  exp::StoreScan scan;
  ASSERT_TRUE(exp::scan_store(config.data_dir + "/" + hash + ".jsonl", hash, scan, error));
  std::FILE* whole = std::tmpfile();
  ASSERT_NE(whole, nullptr);
  ASSERT_TRUE(exp::export_csv(scan.records, whole));
  std::string expected;
  std::rewind(whole);
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, whole)) > 0) expected.append(buffer, got);
  std::fclose(whole);

  EXPECT_EQ(streamed, expected);
  std::uint64_t networks = 0;  // CSV is long format: one row per (record, network)
  for (const exp::ResultRecord& record : scan.records) networks += record.pps.size();
  EXPECT_EQ(rows, networks);
}

TEST(Service, CacheSurvivesServerRestart) {
  ServerConfig config;
  config.socket_path = socket_path("restart");
  config.data_dir = fresh_dir("restart");
  std::string error;
  std::string first_reply;
  {
    Server server;
    ASSERT_TRUE(server.open(config, error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(config.socket_path, error)) << error;
    first_reply = roundtrip(server, client, submit_request(kTinySpec));
    ASSERT_GT(server.computed(), 0u);
  }
  {
    Server server;
    ASSERT_TRUE(server.open(config, error)) << error;
    Client client;
    ASSERT_TRUE(client.connect(config.socket_path, error)) << error;
    // A fresh process sees the stores on disk: zero simulation, same reply.
    EXPECT_EQ(roundtrip(server, client, submit_request(kTinySpec)), first_reply);
    EXPECT_EQ(server.computed(), 0u);
    EXPECT_EQ(server.cache_hits(), 2u);
  }
}

TEST(Service, OpenRejectsWorkerProcesses) {
  // Submits always compute in-process; asking for worker processes is an
  // error, not a silent fallback.
  Server server;
  ServerConfig config;
  config.socket_path = socket_path("workers");
  config.data_dir = fresh_dir("workers");
  config.workers = 2;
  std::string error;
  EXPECT_FALSE(server.open(config, error));
  EXPECT_NE(error.find("workers"), std::string::npos);
  EXPECT_FALSE(server.running());

  config.workers = 0;
  EXPECT_TRUE(server.open(config, error)) << error;
}

TEST(Service, ShutdownOpStopsTheLoop) {
  Server server;
  ServerConfig config;
  config.socket_path = socket_path("down");
  config.data_dir = fresh_dir("down");
  std::string error;
  ASSERT_TRUE(server.open(config, error)) << error;
  EXPECT_TRUE(server.running());

  Client client;
  ASSERT_TRUE(client.connect(config.socket_path, error)) << error;
  EXPECT_EQ(roundtrip(server, client, R"({"op":"shutdown"})"), shutdown_reply());
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace nomc::svc
