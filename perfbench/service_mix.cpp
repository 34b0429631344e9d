// service_mix: an in-process svc::Server (workers = 0) driven through
// step(), closed loop, from min(nproc, 4) client connections. The run is a
// series of batches, each on a fresh server whose set-up seeds the data dir
// with four 16-point campaigns through ordinary submits. A batch replays
// the seeded request script: every block of 800 requests holds 591 point
// queries, 80 status requests, 120 cache-hit submits, 8 streamed exports and
// 1 cold submit of a fresh one-point spec (simulate + append), in a seeded
// order.
//
// End-to-end, each the median over batches: op_p50_us/op_p99_us are query
// round trips, serial_s the cache-hit submit round trip (parse, hash, cache
// probe, reply), rate_per_s completed requests per second. The cold-submit
// round trip is per-layer (svc.cold_submit_p50_us): it creates four files,
// and on a shared virtual disk file creation can stall for seconds at a
// time, which no bound on an end-to-end metric could absorb. The write
// slice is kept thin (1 in 800): the queries that wait behind a cold submit
// then stay above the p99, which falls among those waiting behind an export.
// Every reply is checked against the stores read directly through
// exp::StoreIndex.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>

#include "common.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "exp/store_index.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace nomc;

enum class Kind { kQuery, kStatus, kHitSubmit, kExport, kColdSubmit };
constexpr int kCampaigns = 4;
constexpr int kPointsPerCampaign = 16;
constexpr int kNetworks = 2;  // channels = 2 in every spec below
constexpr std::uint64_t kBlock = 800;  // the request mix repeats per block

std::string small_spec(const std::string& name, const std::string& seed_line) {
  return "name = " + name +
         "\nchannels = 2\nlinks = 1\npower = 0\nwarmup = 0.05\nmeasure = 0.1\ntrials = 1\n" +
         seed_line + "\n";
}

std::string submit_request(const std::string& spec) {
  std::string request = "{\"op\":\"submit\",\"spec\":";
  exp::json_append_string(request, spec);
  return request + "}";
}

/// One request of the seeded script.
struct Request {
  Kind kind = Kind::kQuery;
  int campaign = 0;
  int point = 0;
  std::string line;
};

/// The seeded request script: request i is a pure function of (seed, i).
class Script {
 public:
  Script(std::uint64_t seed, const std::vector<std::string>& seeded_specs,
         const std::vector<std::string>& hashes)
      : seed_{seed}, seeded_specs_{seeded_specs}, hashes_{hashes} {}

  Request at(std::uint64_t i) {
    const std::uint64_t block = i / kBlock;
    if (block != block_ || kinds_.empty()) fill_block(block);
    std::mt19937_64 rng{seed_ * 1000003ULL + i};
    Request r;
    r.kind = kinds_[i % kBlock];
    r.campaign = static_cast<int>(rng() % kCampaigns);
    r.point = static_cast<int>(rng() % kPointsPerCampaign);
    const std::string& hash = hashes_[static_cast<std::size_t>(r.campaign)];
    switch (r.kind) {
      case Kind::kQuery:
        r.line = "{\"op\":\"query\",\"spec_hash\":\"" + hash +
                 "\",\"point\":" + std::to_string(r.point) + "}";
        break;
      case Kind::kStatus:
        r.line = rng() % 2 == 0 ? "{\"op\":\"status\"}"
                                : "{\"op\":\"status\",\"spec_hash\":\"" + hash + "\"}";
        break;
      case Kind::kHitSubmit:
        r.line = submit_request(seeded_specs_[static_cast<std::size_t>(r.campaign)]);
        break;
      case Kind::kExport:
        r.line = "{\"op\":\"export\",\"spec_hash\":\"" + hash + "\"}";
        break;
      case Kind::kColdSubmit:
        r.line = submit_request(small_spec("cold_" + std::to_string(seed_) + "_" +
                                               std::to_string(i),
                                           "seed = " + std::to_string(1 + rng() % 1000000)));
        break;
    }
    return r;
  }

 private:
  void fill_block(std::uint64_t block) {
    kinds_.clear();
    const std::array<std::pair<Kind, int>, 5> mix = {{{Kind::kQuery, 591},
                                                      {Kind::kStatus, 80},
                                                      {Kind::kHitSubmit, 120},
                                                      {Kind::kExport, 8},
                                                      {Kind::kColdSubmit, 1}}};
    for (const auto& [kind, count] : mix) kinds_.insert(kinds_.end(), count, kind);
    std::mt19937_64 rng{seed_ ^ (block * 0x9E3779B97F4A7C15ULL)};
    std::shuffle(kinds_.begin(), kinds_.end(), rng);
    block_ = block;
  }

  std::uint64_t seed_;
  std::vector<std::string> seeded_specs_;
  std::vector<std::string> hashes_;
  std::vector<Kind> kinds_;
  std::uint64_t block_ = 0;
};

/// A client connection: plain blocking sends, non-blocking receives, so one
/// thread can interleave every client with Server::step().
class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof address.sun_path) return false;
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) == 0;
  }
  bool send_line(const std::string& line) {
    const std::string data = line + "\n";
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// Pull whatever has arrived; false on EOF or a socket error.
  bool poll_recv() {
    char buffer[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, MSG_DONTWAIT);
      if (n > 0) {
        inbox_.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) return false;
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
  }
  bool take_line(std::string& line) {
    const std::size_t nl = inbox_.find('\n');
    if (nl == std::string::npos) return false;
    line = inbox_.substr(0, nl);
    inbox_.erase(0, nl + 1);
    return true;
  }

 private:
  int fd_ = -1;
  std::string inbox_;
};

/// A seeded, opened server plus the replies the seeded stores imply.
struct Service {
  svc::Server server;
  std::vector<std::unique_ptr<Conn>> clients;
  std::vector<std::string> specs, hashes;
  std::vector<std::string> submit_replies;               // per campaign
  std::vector<std::vector<std::string>> query_replies;  // [campaign][point]
  std::string dir;
  std::uint64_t seeded_store_bytes = 0;
};

bool pump(svc::Server& server, Report& report, int steps = 4) {
  std::string error;
  for (int i = 0; i < steps; ++i) {
    if (!server.step(0, error)) {
      report.check(false, "server step: " + error);
      return false;
    }
  }
  return true;
}

/// Blocking-style round trip on one client (set-up only).
bool roundtrip(Service& s, Conn& conn, const std::string& request, std::string& reply,
               Report& report) {
  if (!conn.send_line(request)) return false;
  for (int i = 0; i < 100000; ++i) {
    if (!pump(s.server, report, 1) || !conn.poll_recv()) return false;
    if (conn.take_line(reply)) return true;
  }
  return false;
}

bool set_up(Service& s, const std::string& dir, std::uint64_t seed, int clients,
            Report& report) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  s.dir = dir;
  svc::ServerConfig config;
  config.socket_path = dir + "/s.sock";
  config.data_dir = dir + "/data";
  config.workers = 0;
  std::string error;
  if (!s.server.open(config, error)) {
    report.check(false, "server open: " + error);
    return false;
  }
  for (int c = 0; c < clients; ++c) {
    auto conn = std::make_unique<Conn>();
    if (!conn->connect(config.socket_path)) {
      report.check(false, "client connect to " + config.socket_path);
      return false;
    }
    s.clients.push_back(std::move(conn));
  }
  if (!pump(s.server, report)) return false;

  std::mt19937_64 rng{seed};
  for (int c = 0; c < kCampaigns; ++c) {
    std::string sweep = "sweep seed =";
    for (int p = 0; p < kPointsPerCampaign; ++p) sweep += " " + std::to_string(1 + rng() % 1000000);
    const std::string spec = small_spec("seeded_" + std::to_string(c), sweep);
    exp::CampaignSpec parsed;
    exp::SpecError spec_error;
    if (!exp::parse_campaign(spec, parsed, spec_error)) {
      report.check(false, "seeded spec: " + spec_error.str());
      return false;
    }
    std::string reply;
    if (!roundtrip(s, *s.clients[0], submit_request(spec), reply, report)) {
      report.check(false, "seeding submit round trip");
      return false;
    }
    s.specs.push_back(spec);
    s.hashes.push_back(exp::spec_hash(parsed));
    s.submit_replies.push_back(reply);
    report.check(reply == svc::submit_reply(s.hashes.back(), parsed.name, kPointsPerCampaign,
                                            kPointsPerCampaign),
                 "seeding submit reply");

    // The expected query replies, read straight from the store.
    exp::StoreIndex index;
    const std::string store = config.data_dir + "/" + s.hashes.back() + ".jsonl";
    if (!index.open(store, s.hashes.back(), error)) {
      report.check(false, "open seeded store: " + error);
      return false;
    }
    s.seeded_store_bytes += index.covered();
    std::vector<std::string> replies;
    for (int p = 0; p < kPointsPerCampaign; ++p) {
      const exp::StoreIndex::Entry* entry = index.find(s.hashes.back(), p);
      std::string line;
      if (entry == nullptr || !index.read_line(*entry, line, error)) {
        report.check(false, "read seeded point");
        return false;
      }
      replies.push_back(svc::query_reply(line));
    }
    s.query_replies.push_back(std::move(replies));
  }
  return true;
}

/// What one closed-loop batch measured.
struct Window {
  std::uint64_t completed = 0;
  double wall_s = 0.0;
  double step_s = 0.0;
  std::uint64_t not_ok = 0;
  std::vector<double> query_us, hit_us, cold_us, all_us;
  double rt_s = 0.0;  ///< Σ round trips, once all_us is dropped
  std::uint64_t digest = 0;  ///< order-independent Σ of per-request digests
};

/// Drive the closed loop for `requests` scripted requests: every idle client
/// sends the next one; one server step; every busy client drains its
/// replies and checks them against the seeded stores.
Window drive(Service& s, Script& script, std::uint64_t requests, Report& report,
             Tracer& tracer) {
  struct Slot {
    bool busy = false;
    Request request;
    std::uint64_t index = 0;
    Clock::time_point sent;
    int export_lines = 0;
    Digest digest;
  };
  Window w;
  // Sized up front: growing these mid-run fragments the heap, and peak RSS
  // would then creep with the number of batches the host had time for.
  for (std::vector<double>* v : {&w.all_us, &w.query_us, &w.hit_us, &w.cold_us}) {
    v->reserve(requests);
  }
  std::vector<Slot> slots(s.clients.size());
  std::uint64_t next = 0;
  const Clock::time_point start = Clock::now();
  bool any_busy = true;
  while (any_busy || next < requests) {
    for (std::size_t c = 0; c < slots.size(); ++c) {
      Slot& slot = slots[c];
      if (slot.busy || next >= requests) continue;
      slot = Slot{};
      slot.index = next;
      slot.request = script.at(next++);
      slot.busy = true;
      slot.sent = Clock::now();
      if (!s.clients[c]->send_line(slot.request.line)) {
        report.check(false, "client send");
        return w;
      }
    }
    const Clock::time_point step_start = Clock::now();
    if (!pump(s.server, report, 1)) return w;
    w.step_s += seconds_since(step_start);

    any_busy = false;
    for (std::size_t c = 0; c < slots.size(); ++c) {
      Slot& slot = slots[c];
      if (!slot.busy) continue;
      if (!s.clients[c]->poll_recv()) {
        report.check(false, "client receive");
        return w;
      }
      std::string line;
      bool done = false;
      bool ok = true;
      while (!done && s.clients[c]->take_line(line)) {
        const Request& r = slot.request;
        const std::size_t campaign = static_cast<std::size_t>(r.campaign);
        switch (r.kind) {
          case Kind::kQuery:
            ok = line == s.query_replies[campaign][static_cast<std::size_t>(r.point)];
            slot.digest.add(line);
            done = true;
            break;
          case Kind::kHitSubmit:
            ok = line == s.submit_replies[campaign];
            slot.digest.add(line);
            done = true;
            break;
          case Kind::kExport:
            slot.digest.add(line);
            if (line.rfind("{\"csv\":", 0) == 0) {
              ++slot.export_lines;
            } else {
              constexpr int kRows = kPointsPerCampaign * kNetworks;
              ok = line == svc::export_done(kRows) && slot.export_lines == kRows + 1;
              done = true;
            }
            break;
          case Kind::kStatus:
          case Kind::kColdSubmit: {
            exp::JsonValue reply;
            std::string error;
            ok = svc::parse_reply(line, reply, error) && reply.find("ok") != nullptr &&
                 reply.find("ok")->boolean;
            if (ok && r.kind == Kind::kColdSubmit) {
              ok = reply.find("done") != nullptr && reply.find("done")->number == 1.0;
            }
            done = true;
            break;
          }
        }
      }
      if (!done) {
        any_busy = true;
        continue;
      }
      const Clock::time_point now = Clock::now();
      const double us = std::chrono::duration<double, std::micro>(now - slot.sent).count();
      const Request& r = slot.request;
      report.gate(ok, "reply to scripted request " + std::to_string(slot.index) + ": " +
                          r.line.substr(0, 80));
      if (!ok) ++w.not_ok;
      w.all_us.push_back(us);
      if (r.kind == Kind::kQuery) w.query_us.push_back(us);
      if (r.kind == Kind::kHitSubmit) w.hit_us.push_back(us);
      if (r.kind == Kind::kColdSubmit) w.cold_us.push_back(us);
      // Status replies carry lifetime counters and cold submits only echo
      // their spec, so the digest covers the read replies.
      if (r.kind != Kind::kStatus && r.kind != Kind::kColdSubmit) {
        Digest d;
        d.add(std::to_string(slot.index) + ":" + hex64(slot.digest.value()));
        w.digest += d.value();
      }
      static const char* const kNames[] = {"query", "status", "hit_submit", "export",
                                           "cold_submit"};
      tracer.add(kNames[static_cast<int>(r.kind)], slot.sent, now, -1,
                 static_cast<int>(slot.index));
      ++w.completed;
      slot.busy = false;
    }
  }
  w.wall_s = seconds_since(start);
  return w;
}

/// Server-side numbers of one batch, read before the server closes.
struct ServerStats {
  double setup_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t computed = 0;
  std::size_t peak_outbox = 0;
  double index_find_us = 0.0;  ///< traced batch only
  std::uint64_t seeded_store_bytes = 0;
};

/// One batch on a fresh server: set up (timed), drive `requests` scripted
/// requests, close, and delete the data dir, so every batch starts from the
/// same seeded state and the data dir never outgrows one batch.
Window run_batch(const std::string& dir, std::uint64_t seed, int clients,
                 std::uint64_t requests, bool traced, Report& report, Tracer& tracer,
                 ServerStats& stats) {
  Window w;
  {
    Service service;
    const int span = tracer.begin(traced ? "traced_batch" : "batch");
    const Clock::time_point start = Clock::now();
    const bool ready = set_up(service, dir, seed, clients, report);
    stats.setup_s = seconds_since(start);
    tracer.add("setup", start, Clock::now(), span);
    if (ready) {
      Script script{seed, service.specs, service.hashes};
      Tracer quiet{false};  // per-request spans only in the traced batch
      w = drive(service, script, requests, report, traced ? tracer : quiet);
      stats.cache_hits = service.server.cache_hits();
      stats.computed = service.server.computed();
      stats.peak_outbox = service.server.peak_outbox();
      stats.seeded_store_bytes = service.seeded_store_bytes;
      if (traced) {
        std::vector<std::pair<std::string, std::string>> stores;
        for (const std::string& hash : service.hashes) {
          stores.emplace_back(dir + "/data/" + hash + ".jsonl", hash);
        }
        stats.index_find_us = measure_index_find_us(stores, report);
      }
    }
    service.server.close();
    tracer.end(span);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return w;
}

}  // namespace

void run_service_mix(const Args& args, Report& report, Tracer& tracer) {
  const int clients = std::min(nproc(), 4);
  const std::uint64_t requests = args.toy ? kBlock : 10000;

  // ---- Measured batches until the time is up. Every batch replays the same
  // seeded script on a fresh server, so its replies must repeat.
  std::vector<Window> batches;
  std::vector<double> setup_s, rates, query_p50, query_p99, hit_p50, cold_p50;
  constexpr std::size_t kMaxBatches = 4096;
  batches.reserve(kMaxBatches);
  for (std::vector<double>* v : {&setup_s, &rates, &query_p50, &query_p99, &hit_p50, &cold_p50}) {
    v->reserve(kMaxBatches);
  }
  ServerStats stats;
  const Clock::time_point start = Clock::now();
  while (batches.empty() ||
         (seconds_since(start) < args.seconds && batches.size() < kMaxBatches)) {
    const std::string dir = args.work_dir + "/svc" + std::to_string(batches.size());
    batches.push_back(run_batch(dir, args.seed, clients, requests, false, report, tracer, stats));
    const Window& w = batches.back();
    report.gate(w.completed == requests && w.digest == batches.front().digest,
                "service batch reproduces the first batch's replies");
    setup_s.push_back(stats.setup_s);
    rates.push_back(static_cast<double>(w.completed) / w.wall_s);
    query_p50.push_back(quantile(w.query_us, 0.5));
    query_p99.push_back(quantile(w.query_us, 0.99));
    hit_p50.push_back(quantile(w.hit_us, 0.5));
    cold_p50.push_back(quantile(w.cold_us, 0.5));
    // Keep the batch's totals only: per-request samples of every batch
    // would make peak RSS grow with the host's speed.
    Window& kept = batches.back();
    for (const double us : kept.all_us) kept.rt_s += us * 1e-6;
    kept.all_us = kept.query_us = kept.hit_us = kept.cold_us = {};
  }
  report.set("setup_s", median(setup_s));
  report.set("serial_s", median(hit_p50) * 1e-6);
  report.set("rate_per_s", median(rates));
  report.set("op_p50_us", median(query_p50));
  report.set("op_p99_us", median(query_p99));
  report.digests["service_mix.replies"] = hex64(batches.front().digest);

  if (!args.trace) return;

  double step_s = 0.0, rt_s = 0.0;
  std::uint64_t completed = 0, not_ok = 0;
  std::vector<double> batch_walls;
  for (const Window& w : batches) {
    step_s += w.step_s;
    rt_s += w.rt_s;
    completed += w.completed;
    not_ok += w.not_ok;
    batch_walls.push_back(w.wall_s);
  }
  const double step_us = step_s * 1e6 / static_cast<double>(completed);
  report.set("svc.step_us", step_us);
  report.set("svc.client_wait_us", rt_s * 1e6 / static_cast<double>(completed) - step_us);
  report.set("svc.cache_hit_ratio", static_cast<double>(stats.cache_hits) /
                                        static_cast<double>(stats.cache_hits + stats.computed));
  report.set("svc.not_ok", static_cast<double>(not_ok));
  report.set("svc.peak_outbox_bytes", static_cast<double>(stats.peak_outbox));
  report.set("svc.cold_submit_p50_us", median(cold_p50));
  report.set("exp.points", static_cast<double>(stats.computed));
  report.set("exp.store_bytes", static_cast<double>(stats.seeded_store_bytes));

  // ---- Traced batch: the same script with one span per request; its reply
  // digest must equal the untraced batches'.
  ServerStats traced_stats;
  const Window t = run_batch(args.work_dir + "/svc-traced", args.seed, clients, requests, true,
                             report, tracer, traced_stats);
  report.gate(t.digest == batches.front().digest,
              "traced service replies reproduce the untraced digest");
  report.digests["service_mix.replies.traced"] = hex64(t.digest);
  report.set("exp.index_find_us", traced_stats.index_find_us);
  report.set("trace.overhead_ratio", t.wall_s / median(batch_walls));
}

}  // namespace perfbench
