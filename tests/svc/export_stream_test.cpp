// Streaming-export test: a ~100k-record store pushed through a deliberately
// slow reader. The server must never buffer more than the outbox high-water
// mark (the whole CSV is megabytes; the bound is 64 KiB plus one row), and
// the received rows must be byte-identical to the local export-csv path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "exp/spec.hpp"
#include "exp/store_index.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace nomc::svc {
namespace {

constexpr int kRecords = 100000;

constexpr const char* kSpecText =
    "name = svc_stream\n"
    "channels = 2\n"
    "links = 1\n"
    "power = 0\n"
    "warmup = 0.1\n"
    "measure = 0.2\n"
    "trials = 1\n"
    "sweep links = 1 2\n";

/// A synthetic one-network record carrying the real spec hash — the cache
/// recomputes the hash from the .spec sidecar, so a made-up hash would be
/// rejected before the export even starts.
std::string record_line(const std::string& hash, int point) {
  const std::string pps = std::to_string(point % 97);
  std::string line = R"({"v":2,"campaign":"svc_stream","spec_hash":")" + hash +
                     R"(","point":)" + std::to_string(point) +
                     R"(,"sweep":{"links":")" + std::to_string(point % 7 + 1) +
                     R"("},"params":{"seed":1,"trials":1},"per_network":{"pps":[)" + pps +
                     R"(],"prr":[1],"backoffs_per_s":[0],"drops_per_s":[0]},)" +
                     R"("overall_pps":1,"jain":1,"per_trial":{"overall_pps":[1],"pps":[[)" +
                     pps + "]]}}";
  line += '\n';
  return line;
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr) << path;
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), file), content.size());
  std::fclose(file);
}

TEST(ExportStream, SlowReaderSeesBoundedOutboxAndExactBytes) {
  exp::CampaignSpec spec;
  exp::SpecError spec_error;
  ASSERT_TRUE(exp::parse_campaign(kSpecText, spec, spec_error)) << spec_error.str();
  const std::string hash = exp::spec_hash(spec);

  const std::string dir =
      ::testing::TempDir() + "nomc_stream_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  write_file(dir + "/" + hash + ".spec", exp::format_campaign(spec));
  std::string store;
  store.reserve(static_cast<std::size_t>(kRecords) * 200);
  for (int point = 0; point < kRecords; ++point) store += record_line(hash, point);
  const std::string store_path = dir + "/" + hash + ".jsonl";
  write_file(store_path, store);

  ServerConfig config;
  config.socket_path = "/tmp/nomc_stream_" + std::to_string(::getpid()) + ".sock";
  config.data_dir = dir;
  Server server;
  std::string error;
  ASSERT_TRUE(server.open(config, error)) << error;

  // The reader runs in its own thread and throttles itself, so the server's
  // outbox would balloon to the full CSV without streaming backpressure.
  std::atomic<bool> done{false};
  std::atomic<bool> reader_ok{false};
  std::string received;
  std::string reader_error;
  // A raw thread on purpose: it models an external client process pacing
  // its reads, outside the simulator's deterministic runners.
  // nomc-lint: allow(det-raw-thread)
  std::thread reader([&] {
    Client client;
    std::string thread_error;
    if (!client.connect(config.socket_path, thread_error)) {
      reader_error = thread_error;
      done = true;
      return;
    }
    std::string request = "{\"op\":\"export\",\"spec_hash\":";
    exp::json_append_string(request, hash);
    request += '}';
    if (!client.send_line(request, thread_error)) {
      reader_error = thread_error;
      done = true;
      return;
    }
    std::string line;
    long rows = 0;
    for (;;) {
      if (!client.recv_line(line, thread_error)) {
        reader_error = thread_error;
        break;
      }
      exp::JsonValue value;
      if (!parse_reply(line, value, thread_error)) {
        reader_error = thread_error + ": " + line;
        break;
      }
      // Row lines are bare {"csv":...}; only the terminator and errors
      // carry "ok".
      if (const exp::JsonValue* csv = value.find("csv"); csv != nullptr) {
        received += csv->string;
        received += '\n';
        if (++rows % 256 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (const exp::JsonValue* terminator = value.find("done");
          terminator != nullptr && terminator->boolean) {
        reader_ok = true;
        break;
      }
      reader_error = "unexpected or error reply: " + line;
      break;
    }
    done = true;
  });

  for (int i = 0; i < 600000 && !done; ++i) {
    ASSERT_TRUE(server.step(2, error)) << error;
  }
  reader.join();
  ASSERT_TRUE(reader_ok) << reader_error;

  // Backpressure bound: the high-water mark is 64 KiB; one in-flight row can
  // overshoot it, but nothing near the multi-megabyte CSV may ever queue.
  EXPECT_GT(received.size(), std::size_t{2} * 1024 * 1024) << "CSV unexpectedly small";
  EXPECT_LT(server.peak_outbox(), std::size_t{128} * 1024)
      << "outbox grew far beyond the streaming high-water mark";

  // Byte-for-byte the same CSV the local export-csv command writes.
  exp::StoreIndex index;
  ASSERT_TRUE(index.open(store_path, hash, error)) << error;
  std::string expected;
  ASSERT_TRUE(exp::export_csv_lines(
      index,
      [&](const std::string& line) {
        expected += line;
        expected += '\n';
        return true;
      },
      error))
      << error;
  EXPECT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected) << "streamed CSV differs from local export-csv";
}

}  // namespace
}  // namespace nomc::svc
