// The campaign service: a single-process coordinator that accepts campaign
// submissions from many clients over a Unix-domain socket, serves already
// computed points from the spec-hash result cache, and runs only the missing
// points — so server-written stores are byte-identical to local
// `nomc-campaign run` ones by construction.
//
// Concurrency model: one thread, poll-based. Sessions are multiplexed
// non-blocking. With `workers` == 0 a submit that needs simulation runs
// synchronously on the server thread through exp::run_campaign (the
// original model). With `workers` > 0 the pending sweep points are sharded
// across that many supervised worker processes: the server leases
// contiguous point ranges over pipes (svc/worker_pool.hpp), feeds the
// out-of-order completions through exp::OrderedCheckpointer keyed by
// pending-slot order, and keeps answering status/query/export between poll
// beats while the campaign runs. Crashed, stalled, or garbage-emitting
// workers lose their lease; the points are re-leased under a bounded retry
// budget, after which the campaign is marked failed with the offending
// range in status replies. Either way the store bytes are a pure function
// of the spec — see docs/service.md for the determinism argument.
//
// The loop is exposed as step() so tests and benchmarks can drive a server
// in-process, single-threaded, without a background thread.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/store_index.hpp"
#include "svc/cache.hpp"
#include "svc/lease.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"
#include "svc/worker_pool.hpp"

namespace nomc::svc {

struct ServerConfig {
  std::string socket_path;  ///< Unix-domain socket to listen on
  std::string data_dir;     ///< campaign stores + sidecars live here
  int jobs = 1;             ///< pool factor (exp::CampaignOptions); per point in a worker
  int point_jobs = 1;       ///< pool factor (synchronous path)
  int trial_workers = 1;    ///< region-sharded workers inside each trial
  std::size_t max_line = kMaxLine;
  bool quiet = true;  ///< suppress run_campaign progress lines
  /// Worker processes a submitted campaign is sharded across. 0 keeps the
  /// synchronous in-process path; > 0 requires `worker_argv`.
  int workers = 0;
  /// Command line of the worker process (argv[0] = binary path), normally
  /// {nomc-campaign, "worker"}.
  std::vector<std::string> worker_argv;
  int lease_points = 2;         ///< max points per lease
  int lease_timeout_ms = 30000; ///< stalled-lease deadline
  int worker_retries = 2;       ///< re-leases one point survives before the
                                ///< campaign is marked failed
};

class Server {
 public:
  Server() = default;
  ~Server() { close(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and prepare the data directory.
  bool open(const ServerConfig& config, std::string& error);

  /// One scheduler beat: wait up to `timeout_ms` (-1 = forever) for socket,
  /// pipe, and lease-deadline events, then accept, read, execute requests,
  /// and flush replies. Returns false only on a fatal server error.
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
  [[nodiscard]] std::uint64_t retried() const {
    return retried_ + (job_ ? job_->leases.retried() : 0);
  }

  /// True while a sharded campaign is executing or queued (tests drive
  /// step() until this drops before reading the submit reply).
  [[nodiscard]] bool busy() const { return job_ != nullptr || !job_queue_.empty(); }

  /// Worker child pids, one per pool slot (-1 = not running). Fault tests
  /// SIGKILL one of these mid-campaign.
  [[nodiscard]] std::vector<pid_t> worker_pids() const { return pool_.pids(); }

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
    std::uint64_t id = 0;
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

  /// A sharded campaign waiting for worker capacity.
  struct QueuedJob {
    CampaignEntry* entry = nullptr;
    std::vector<std::uint64_t> waiters;  ///< session ids owed a submit reply
  };

  /// The sharded campaign currently executing on the worker pool.
  struct ShardedJob {
    CampaignEntry* entry = nullptr;
    std::string spec_text;  ///< canonical spec carried in every lease
    exp::StorePlan plan;    ///< writers + pending points (declared before
                            ///< checkpointer_, which references its writers)
    std::unique_ptr<exp::OrderedCheckpointer> checkpointer;
    std::map<int, int> slot_of_point;  ///< point index -> checkpointer slot
    LeaseManager leases;
    std::vector<std::uint64_t> waiters;
  };

  /// Execute one request line, appending reply line(s) to `session.outbox`.
  void serve_line(Session& session, const std::string& line, bool oversized);
  void reply(Session& session, const std::string& line);

  void handle_submit(Session& session, const Request& request);
  void handle_status(Session& session, const Request& request);
  void handle_query(Session& session, const Request& request);
  void handle_export(Session& session, const Request& request);

  // Sharded-campaign machinery.
  void start_next_job();
  void assign_leases();
  void handle_worker_io(int slot);
  /// Returns false when the slot was faulted (stop reading its lines).
  bool process_worker_line(int slot, const std::string& line);
  void fault_worker(int slot, const std::string& reason);
  void fail_active_job(const std::string& message);
  void complete_job();
  void abort_jobs(const std::string& message);
  void reply_waiters_error(const std::vector<std::uint64_t>& waiters, const std::string& message);

  /// Generate export rows for `session` until the job finishes or the
  /// outbox reaches the high-water mark, then serve deferred lines.
  void pump_export(Session& session);

  Session* find_session(std::uint64_t id);
  [[nodiscard]] bool shutdown_complete() const;
  [[nodiscard]] static std::int64_t now_ms();

  ServerConfig config_;
  Socket listener_;
  ResultCache cache_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 1;
  bool shutdown_requested_ = false;
  std::uint64_t submissions_ = 0;
  std::uint64_t computed_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t retried_ = 0;      ///< re-leased points from finished jobs
  std::size_t peak_outbox_ = 0;

  WorkerPool pool_;
  std::unique_ptr<ShardedJob> job_;
  std::deque<QueuedJob> job_queue_;
  /// spec_hash -> (first, count) of the range that exhausted its retries.
  std::map<std::string, std::pair<int, int>> failed_;
};

}  // namespace nomc::svc
