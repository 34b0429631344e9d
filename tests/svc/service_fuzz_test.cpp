// Server crash-resume fuzz: submit a campaign, then tear the store and
// `.timing` tails at random offsets the way a death mid-write would, close
// the server, reopen it on the same data dir and resubmit. The final store
// must be byte-identical to a serial local run for every seed, and the
// resubmit must simulate exactly the points the tear destroyed — the crash
// point must leave no fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>

#include <unistd.h>

#include "exp/campaign.hpp"
#include "exp/spec.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace nomc::svc {
namespace {

// 4 cheap points, one trial each.
constexpr const char* kFuzzSpec =
    "name = svc_fuzz\n"
    "channels = 2\n"
    "links = 1\n"
    "power = 0\n"
    "warmup = 0.05\n"
    "measure = 0.1\n"
    "trials = 1\n"
    "sweep links = 1 2 3 4\n";

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string content;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) content.append(buffer, got);
  std::fclose(file);
  return content;
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), file), content.size());
  std::fclose(file);
}

void truncate_at(const std::string& path, std::size_t offset) {
  std::string content = read_file(path);
  if (offset < content.size()) content.resize(offset);
  write_file(path, content);
}

exp::CampaignSpec fuzz_spec() {
  exp::CampaignSpec spec;
  exp::SpecError error;
  EXPECT_TRUE(exp::parse_campaign(kFuzzSpec, spec, error)) << error.str();
  return spec;
}

const std::string& oracle_bytes() {
  static const std::string bytes = [] {
    const std::string path =
        ::testing::TempDir() + "nomc_sfz_oracle_" + std::to_string(::getpid()) + ".jsonl";
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".timing");
    exp::CampaignOptions options;
    options.quiet = true;
    std::string error;
    EXPECT_TRUE(exp::run_campaign(fuzz_spec(), path, options, nullptr, error)) << error;
    return read_file(path);
  }();
  return bytes;
}

std::string submit_request() {
  std::string request = "{\"op\":\"submit\",\"spec\":";
  exp::json_append_string(request, std::string(kFuzzSpec));
  request += '}';
  return request;
}

/// send + step + recv of one request on an in-process server. A submit
/// simulates synchronously inside the step that reads it.
std::string roundtrip(Server& server, Client& client, const std::string& request) {
  std::string error;
  EXPECT_TRUE(client.send_line(request, error)) << error;
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(server.step(20, error)) << error;
  std::string line;
  EXPECT_TRUE(client.recv_line(line, error)) << error;
  return line;
}

std::uint64_t status_counter(Server& server, Client& client, const char* key) {
  exp::JsonValue value;
  std::string error;
  const std::string line = roundtrip(server, client, R"({"op":"status"})");
  EXPECT_TRUE(parse_reply(line, value, error)) << line;
  const exp::JsonValue* counter = value.find(key);
  return counter == nullptr ? ~std::uint64_t{0} : static_cast<std::uint64_t>(counter->number);
}

TEST(ServiceFuzz, ServerKillMidCampaignResumesByteIdentical) {
  const std::string& oracle = oracle_bytes();
  ASSERT_FALSE(oracle.empty());
  const std::string hash = exp::spec_hash(fuzz_spec());
  const std::uint64_t points = exp::expand_grid(fuzz_spec()).size();

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    // Fixed-seed generator for fuzz *inputs* (tear offsets), not simulation
    // randomness — replays stay reproducible.
    // nomc-lint: allow(det-rand)
    std::mt19937_64 rng{seed};
    const std::string dir =
        ::testing::TempDir() + "nomc_sfz_" + std::to_string(::getpid()) + "_" +
        std::to_string(seed);
    std::filesystem::remove_all(dir);
    const std::string store_path = dir + "/" + hash + ".jsonl";

    ServerConfig config;
    config.data_dir = dir;
    config.socket_path =
        "/tmp/nomc_sfz_" + std::to_string(::getpid()) + "_" + std::to_string(seed) + ".sock";

    // First leg: the submit computes the whole grid. Then tear both tails
    // while the server is still up — the bytes a death mid-append leaves —
    // and close it.
    std::string first_reply;
    std::uint64_t torn = 0;
    {
      Server server;
      std::string error;
      ASSERT_TRUE(server.open(config, error)) << error;
      Client client;
      ASSERT_TRUE(client.connect(config.socket_path, error)) << error;
      first_reply = roundtrip(server, client, submit_request());
      ASSERT_EQ(first_reply, submit_reply(hash, "svc_fuzz", static_cast<int>(points),
                                          static_cast<int>(points)));
      ASSERT_EQ(read_file(store_path), oracle);

      // Anywhere in the store, not just its last line: the cut stands for
      // every crash point from "nothing written" to "already done".
      const std::size_t cut = rng() % (oracle.size() + 1);
      truncate_at(store_path, cut);
      const auto kept_end = oracle.begin() + static_cast<std::ptrdiff_t>(cut);
      torn = points - static_cast<std::uint64_t>(std::count(oracle.begin(), kept_end, '\n'));
      const std::string timing = read_file(store_path + ".timing");
      ASSERT_FALSE(timing.empty());
      truncate_at(store_path + ".timing", rng() % (timing.size() + 1));
      server.close();
    }

    // Second leg: a fresh server over the same data dir. The resubmit
    // recomputes only the torn points and lands on the serial oracle's bytes.
    {
      Server server;
      std::string error;
      ASSERT_TRUE(server.open(config, error)) << error;
      Client client;
      ASSERT_TRUE(client.connect(config.socket_path, error)) << error;
      EXPECT_EQ(roundtrip(server, client, submit_request()), first_reply);
      EXPECT_EQ(status_counter(server, client, "computed"), torn);
      EXPECT_EQ(status_counter(server, client, "cache_hits"), points - torn);
      server.close();
    }

    EXPECT_EQ(read_file(store_path), oracle);
  }
}

}  // namespace
}  // namespace nomc::svc
