#include "svc/server.hpp"

#include <cstddef>

#include <unistd.h>

#include "exp/campaign.hpp"

namespace nomc::svc {
namespace {

/// A session mid-export stops generating rows once this many bytes wait in
/// its outbox; the pump resumes as the kernel drains them. This is what
/// bounds server memory against a slow reader.
constexpr std::size_t kExportHighWater = std::size_t{64} * 1024;

}  // namespace

bool Server::open(const ServerConfig& config, std::string& error) {
  close();
  if (config.workers != 0) {
    error = "workers must be 0: submits run in-process (use point_jobs to parallelise)";
    return false;
  }
  config_ = config;
  if (!cache_.configure(config.data_dir, error)) return false;
  if (!listen_unix(config.socket_path, listener_, error)) return false;
  return true;
}

void Server::close() {
  sessions_.clear();
  if (listener_.valid()) {
    listener_.close();
    ::unlink(config_.socket_path.c_str());
  }
  shutdown_requested_ = false;
  submissions_ = computed_ = cache_hits_ = 0;
  peak_outbox_ = 0;
}

bool Server::shutdown_complete() const {
  if (!shutdown_requested_) return false;
  for (const std::unique_ptr<Session>& session : sessions_) {
    if (session->sent < session->outbox.size()) return false;  // reply in flight
  }
  return true;
}

bool Server::run(std::string& error) {
  while (running()) {
    if (!step(-1, error)) return false;
  }
  return true;
}

bool Server::step(int timeout_ms, std::string& error) {
  if (!listener_.valid()) {
    error = "server is not open";
    return false;
  }

  // A session mid-export with outbox headroom has rows ready to generate
  // now, so do not block in poll.
  int timeout = timeout_ms;
  for (const std::unique_ptr<Session>& session : sessions_) {
    if (session->export_job && session->outbox.size() - session->sent < kExportHighWater) {
      timeout = 0;
      break;
    }
  }

  std::vector<PollEntry> entries;
  entries.reserve(sessions_.size() + 1);
  PollEntry listen_entry;
  listen_entry.fd = listener_.fd();
  listen_entry.want_read = !shutdown_requested_;
  entries.push_back(listen_entry);
  const std::size_t polled_sessions = sessions_.size();
  for (const std::unique_ptr<Session>& session : sessions_) {
    PollEntry entry;
    entry.fd = session->socket.fd();
    entry.want_read = !session->peer_closed;
    entry.want_write = session->sent < session->outbox.size();
    entries.push_back(entry);
  }
  if (!poll_sockets(entries, timeout, error)) return false;

  if (entries[0].readable) {
    // Drain the accept queue.
    while (true) {
      Socket accepted;
      bool got = false;
      if (!accept_unix(listener_, accepted, got, error)) return false;
      if (!got) break;
      auto session = std::make_unique<Session>();
      session->socket = std::move(accepted);
      session->splitter = LineSplitter{config_.max_line};
      sessions_.push_back(std::move(session));
    }
  }

  // Read + execute. New sessions appended above had no poll slot; they are
  // picked up next step.
  for (std::size_t i = 0; i < polled_sessions && i < sessions_.size(); ++i) {
    Session& session = *sessions_[i];
    const PollEntry& entry = entries[i + 1];
    if (entry.broken) {
      session.peer_closed = true;
      session.outbox.clear();
      session.sent = 0;
      session.export_job.reset();
      continue;
    }
    if (entry.readable && !session.peer_closed) {
      bool closed = false;
      bool would_block = false;
      std::string bytes;
      if (!read_available(session.socket, bytes, std::size_t{1} << 20, closed, would_block,
                          error)) {
        session.peer_closed = true;
        session.outbox.clear();
        session.sent = 0;
        session.export_job.reset();
        error.clear();  // a broken peer is not a server error
        continue;
      }
      session.splitter.feed(bytes);
      std::string line;
      bool oversized = false;
      while (session.splitter.take(line, oversized)) serve_line(session, line, oversized);
      if (closed) session.peer_closed = true;
    }
  }

  // Generate export rows where there is headroom, then flush every outbox.
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    Session& session = *sessions_[i];
    pump_export(session);
    if (session.sent < session.outbox.size()) {
      if (!write_some(session.socket, session.outbox, session.sent, error)) {
        session.peer_closed = true;
        session.outbox.clear();
        session.sent = 0;
        session.export_job.reset();
        error.clear();
      } else if (session.sent == session.outbox.size()) {
        session.outbox.clear();
        session.sent = 0;
      }
    }
  }

  // Drop sessions whose peer is gone and whose replies are flushed.
  for (std::size_t i = 0; i < sessions_.size();) {
    Session& session = *sessions_[i];
    if (session.peer_closed && session.sent >= session.outbox.size()) {
      sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return true;
}

void Server::reply(Session& session, const std::string& line) {
  session.outbox += line;
  session.outbox += '\n';
  const std::size_t pending = session.outbox.size() - session.sent;
  if (pending > peak_outbox_) peak_outbox_ = pending;
}

void Server::serve_line(Session& session, const std::string& line, bool oversized) {
  if (session.export_job) {
    // Mid-export the reply stream belongs to the CSV rows; later requests
    // are served after the terminator, in arrival order.
    session.deferred.emplace_back(line, oversized);
    return;
  }
  if (oversized) {
    reply(session, error_reply("request line exceeds " + std::to_string(config_.max_line) +
                               " bytes"));
    return;
  }
  if (line.empty()) return;  // blank keep-alive lines are ignored

  Request request;
  std::string error;
  if (!parse_request(line, request, error)) {
    reply(session, error_reply(error));
    return;
  }
  if (request.op == "ping") {
    reply(session, pong_reply());
  } else if (request.op == "submit") {
    handle_submit(session, request);
  } else if (request.op == "status") {
    handle_status(session, request);
  } else if (request.op == "query") {
    handle_query(session, request);
  } else if (request.op == "export") {
    handle_export(session, request);
  } else if (request.op == "shutdown") {
    // Exports still streaming end with an error instead of a terminator.
    for (const std::unique_ptr<Session>& other : sessions_) {
      if (other->export_job) {
        reply(*other, error_reply("server is shutting down"));
        other->export_job.reset();
        other->deferred.clear();
      }
    }
    reply(session, shutdown_reply());
    shutdown_requested_ = true;
  } else {
    reply(session, error_reply("unknown op: " + request.op));
  }
}

void Server::handle_submit(Session& session, const Request& request) {
  if (request.spec.empty()) {
    reply(session, error_reply("submit needs a \"spec\""));
    return;
  }
  exp::CampaignSpec spec;
  exp::SpecError spec_error;
  if (!exp::parse_campaign(request.spec, spec, spec_error)) {
    reply(session, error_reply("bad spec: " + spec_error.str()));
    return;
  }
  std::string error;
  CampaignEntry* entry = cache_.intern(spec, error);
  if (entry == nullptr) {
    reply(session, error_reply(error));
    return;
  }

  // Cache probe: every grid point already on disk is a hit and is never
  // re-simulated; only the gap is computed (Resume keeps the existing
  // records' bytes verbatim).
  int present = 0;
  if (!cache_.probe(*entry, present, error)) {
    reply(session, error_reply(error));
    return;
  }
  cache_hits_ += static_cast<std::uint64_t>(present);
  if (present < entry->points) {
    exp::CampaignOptions options;
    options.jobs = config_.jobs;
    options.point_jobs = config_.point_jobs;
    options.mode = exp::CampaignOptions::Mode::kResume;
    options.quiet = config_.quiet;
    exp::CampaignStats stats;
    if (!exp::run_campaign(entry->spec, entry->store_path, options, &stats, error)) {
      reply(session, error_reply(error));
      return;
    }
    computed_ += static_cast<std::uint64_t>(stats.computed);
  }
  ++submissions_;
  // The reply is a pure function of the spec: clients racing on the same
  // campaign read identical bytes whether their points were computed or
  // served from cache (the split is visible in the status counters).
  reply(session, submit_reply(entry->spec_hash, entry->spec.name, entry->points,
                              entry->points));
}

void Server::handle_status(Session& session, const Request& request) {
  StatusInfo info;
  info.submissions = submissions_;
  info.computed = computed_;
  info.cache_hits = cache_hits_;
  info.campaigns = cache_.size();
  if (!request.spec_hash.empty()) {
    CampaignEntry* entry = cache_.find(request.spec_hash);
    if (entry == nullptr) {
      reply(session, error_reply("unknown campaign: " + request.spec_hash));
      return;
    }
    info.campaigns = cache_.size();  // find() may have lazy-loaded one
    std::string error;
    int present = 0;
    if (!cache_.probe(*entry, present, error)) {
      reply(session, error_reply(error));
      return;
    }
    info.campaign = entry->spec.name;
    info.spec_hash = entry->spec_hash;
    info.points = entry->points;
    info.done = present;
    info.state = present >= entry->points ? "complete" : "partial";
  }
  reply(session, status_reply(info));
}

void Server::handle_query(Session& session, const Request& request) {
  if (request.spec_hash.empty() || !request.has_point) {
    reply(session, error_reply("query needs \"spec_hash\" and \"point\""));
    return;
  }
  CampaignEntry* entry = cache_.find(request.spec_hash);
  if (entry == nullptr) {
    reply(session, error_reply("unknown campaign: " + request.spec_hash));
    return;
  }
  exp::StoreIndex index;
  std::string error;
  if (!index.open(entry->store_path, entry->spec_hash, error)) {
    reply(session, error_reply(error));
    return;
  }
  const exp::StoreIndex::Entry* record = index.find(request.spec_hash, request.point);
  if (record == nullptr) {
    reply(session, error_reply("point " + std::to_string(request.point) +
                               " is not stored for " + request.spec_hash));
    return;
  }
  std::string line;
  if (!index.read_line(*record, line, error)) {
    reply(session, error_reply(error));
    return;
  }
  reply(session, query_reply(line));
}

void Server::handle_export(Session& session, const Request& request) {
  if (request.spec_hash.empty()) {
    reply(session, error_reply("export needs \"spec_hash\""));
    return;
  }
  CampaignEntry* entry = cache_.find(request.spec_hash);
  if (entry == nullptr) {
    reply(session, error_reply("unknown campaign: " + request.spec_hash));
    return;
  }
  auto job = std::make_unique<ExportJob>();
  job->index = std::make_unique<exp::StoreIndex>();
  std::string error;
  if (!job->index->open(entry->store_path, entry->spec_hash, error)) {
    reply(session, error_reply(error));
    return;
  }
  // Pass 1 (cheap, one record in memory at a time): the sweep-key union in
  // first-seen order — the same rule as export_csv_lines, so the streamed
  // bytes are identical to the local `nomc-campaign export-csv` output.
  exp::ResultRecord record;
  for (const exp::StoreIndex::Entry& entry_ref : job->index->entries()) {
    if (!job->index->read_record(entry_ref, record, error)) {
      reply(session, error_reply(error));
      return;
    }
    exp::csv_collect_sweep_keys(record, job->sweep_keys);
  }
  session.export_job = std::move(job);
  // Rows are generated by pump_export as the outbox drains; the reply to
  // any request that arrives mid-export is deferred past the terminator.
}

void Server::pump_export(Session& session) {
  std::string error;
  while (session.export_job && session.outbox.size() - session.sent < kExportHighWater) {
    ExportJob& job = *session.export_job;
    if (!job.header_sent) {
      std::string header = exp::csv_header(job.sweep_keys);
      header.pop_back();  // reply lines carry their own newline
      reply(session, export_row(header));
      job.header_sent = true;
      continue;
    }
    if (job.row_pos < job.rows.size()) {
      reply(session, export_row(job.rows[job.row_pos++]));
      ++job.emitted;
      continue;
    }
    if (job.next_entry >= job.index->entries().size()) {
      reply(session, export_done(job.emitted));
      session.export_job.reset();
      break;
    }
    exp::ResultRecord record;
    if (!job.index->read_record(job.index->entries()[job.next_entry], record, error)) {
      reply(session, error_reply(error));
      session.export_job.reset();
      break;
    }
    ++job.next_entry;
    job.rows = exp::csv_record_rows(record, job.sweep_keys);
    job.row_pos = 0;
  }
  // Serve requests that queued up behind the export stream (one of them may
  // start the next export, which re-defers the rest).
  while (!session.export_job && !session.deferred.empty()) {
    auto [line, oversized] = std::move(session.deferred.front());
    session.deferred.pop_front();
    serve_line(session, line, oversized);
  }
}

}  // namespace nomc::svc
