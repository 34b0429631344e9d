// The campaign service: a single-process coordinator that accepts campaign
// submissions from many clients over a Unix-domain socket, serves already
// computed points from the spec-hash result cache, and runs only the missing
// points — so server-written stores are byte-identical to local
// `nomc-campaign run` ones by construction.
//
// Concurrency model: one thread, poll-based. Sessions are multiplexed
// non-blocking. A submit that needs simulation runs synchronously on the
// server thread through exp::run_campaign, whose pool of jobs × point_jobs
// threads shares the trials of every missing point; other sessions are
// served once it returns. The store bytes are a pure function of the spec —
// see docs/service.md for the determinism argument.
//
// The loop is exposed as step() so tests and benchmarks can drive a server
// in-process, single-threaded, without a background thread.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/store_index.hpp"
#include "svc/cache.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"

namespace nomc::svc {

struct ServerConfig {
  std::string socket_path;  ///< Unix-domain socket to listen on
  std::string data_dir;     ///< campaign stores + sidecars live here
  int jobs = 1;             ///< pool factor (exp::CampaignOptions)
  int point_jobs = 1;       ///< pool factor (exp::CampaignOptions)
  int trial_workers = 1;    ///< region-sharded workers inside each trial
  std::size_t max_line = kMaxLine;
  bool quiet = true;  ///< suppress run_campaign progress lines
  /// Must be 0: open() rejects any other value. Kept only because the
  /// service_mix benchmark driver still assigns it; it goes with that line.
  int workers = 0;
};

class Server {
 public:
  Server() = default;
  ~Server() { close(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and prepare the data directory.
  bool open(const ServerConfig& config, std::string& error);

  /// One scheduler beat: wait up to `timeout_ms` (-1 = forever) for socket
  /// events, then accept, read, execute requests, and flush replies.
  /// Returns false only on a fatal server error.
  bool step(int timeout_ms, std::string& error);

  /// step() until a shutdown request has been served and flushed.
  bool run(std::string& error);

  void close();

  /// False once a shutdown request has been fully served.
  [[nodiscard]] bool running() const { return listener_.valid() && !shutdown_complete(); }
  /// Open client connections (tests).
  [[nodiscard]] std::size_t sessions() const { return sessions_.size(); }

  // Lifetime counters, as reported in status replies.
  [[nodiscard]] std::uint64_t submissions() const { return submissions_; }
  [[nodiscard]] std::uint64_t computed() const { return computed_; }
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }

  /// High-water mark of any session's unflushed outbox bytes — the quantity
  /// the streaming export keeps bounded regardless of store size.
  [[nodiscard]] std::size_t peak_outbox() const { return peak_outbox_; }

 private:
  /// An export being streamed to one session: the index stays open, rows
  /// are generated on demand whenever the outbox has headroom, so the
  /// buffered bytes stay bounded no matter how large the store is.
  struct ExportJob {
    std::unique_ptr<exp::StoreIndex> index;
    std::vector<std::string> sweep_keys;  ///< pass-1 union, first-seen order
    std::size_t next_entry = 0;           ///< next index entry to read
    std::vector<std::string> rows;        ///< CSV rows of the current record
    std::size_t row_pos = 0;
    std::uint64_t emitted = 0;  ///< data rows sent (header excluded)
    bool header_sent = false;
  };

  struct Session {
    Socket socket;
    LineSplitter splitter;
    std::string outbox;        // bytes not yet accepted by the kernel
    std::size_t sent = 0;      // outbox prefix already written
    bool peer_closed = false;  // EOF seen; drain outbox then drop
    std::unique_ptr<ExportJob> export_job;
    /// Request lines that arrived mid-export (served after the terminator,
    /// preserving reply order). The bool is the oversized flag.
    std::deque<std::pair<std::string, bool>> deferred;
  };

  /// Execute one request line, appending reply line(s) to `session.outbox`.
  void serve_line(Session& session, const std::string& line, bool oversized);
  void reply(Session& session, const std::string& line);

  void handle_submit(Session& session, const Request& request);
  void handle_status(Session& session, const Request& request);
  void handle_query(Session& session, const Request& request);
  void handle_export(Session& session, const Request& request);

  /// Generate export rows for `session` until the job finishes or the
  /// outbox reaches the high-water mark, then serve deferred lines.
  void pump_export(Session& session);

  [[nodiscard]] bool shutdown_complete() const;

  ServerConfig config_;
  Socket listener_;
  ResultCache cache_;
  std::vector<std::unique_ptr<Session>> sessions_;
  bool shutdown_requested_ = false;
  std::uint64_t submissions_ = 0;
  std::uint64_t computed_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::size_t peak_outbox_ = 0;
};

}  // namespace nomc::svc
