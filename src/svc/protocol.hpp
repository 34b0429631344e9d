// Wire protocol for the campaign service: line-delimited JSON.
//
// Each request is one JSON object on one '\n'-terminated line; each reply is
// likewise one line. Requests carry an "op" member selecting the operation:
//
//   {"op":"ping"}
//   {"op":"submit","spec":<campaign text, JSON-escaped>}
//   {"op":"status"}                       — server-lifetime counters
//   {"op":"status","spec_hash":<16 hex>}  — plus one campaign's progress
//   {"op":"query","spec_hash":H,"point":N}
//   {"op":"export","spec_hash":H}
//   {"op":"shutdown"}
//
// Replies always carry "ok". Failures are {"ok":false,"error":<text>} and the
// connection survives — a client can retry on the same socket. The "export"
// reply is the one multi-line response: {"csv":<row>} lines followed by a
// {"ok":true,"done":true,"rows":N} terminator. docs/service.md holds the full
// grammar and the reply schemas.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/result_store.hpp"

namespace nomc::svc {

/// Longest accepted request/reply line, including the newline. Campaign
/// specs are a few KiB; 1 MiB leaves two orders of magnitude of headroom
/// while bounding what a misbehaving peer can make the server buffer.
inline constexpr std::size_t kMaxLine = std::size_t{1} << 20;

/// Incremental splitter of a byte stream into '\n'-terminated lines with a
/// hard line-length cap. An overlong line flips into discard mode: its bytes
/// are dropped through the terminating newline, and take() reports it as one
/// oversized line so the session can answer with an error instead of dying.
class LineSplitter {
 public:
  explicit LineSplitter(std::size_t max_line = kMaxLine) : max_line_{max_line} {}

  /// Append raw bytes from the socket.
  void feed(const std::string& bytes);

  /// Pop the next complete line (without its newline). `oversized` marks a
  /// line that blew the cap and was discarded (`line` is then empty).
  bool take(std::string& line, bool& oversized);

  /// Bytes of an incomplete trailing line currently buffered.
  [[nodiscard]] std::size_t pending() const { return buffer_.size(); }

 private:
  std::size_t max_line_;
  std::string buffer_;
  bool discarding_ = false;           // inside an overlong line
  std::vector<std::string> lines_;    // complete lines, oldest first
  std::vector<bool> oversized_;       // parallel to lines_
  std::size_t next_ = 0;
};

/// A parsed request line.
struct Request {
  std::string op;
  std::string spec;       ///< submit: campaign spec text
  std::string spec_hash;  ///< status (optional) / query / export
  int point = -1;         ///< query
  bool has_point = false;
};

/// Parse one request line. On failure fills `error` with a message suitable
/// for an error reply.
bool parse_request(const std::string& line, Request& out, std::string& error);

// ---- Reply builders (no trailing newline) --------------------------------

[[nodiscard]] std::string error_reply(const std::string& message);
[[nodiscard]] std::string pong_reply();

/// The submit reply is a pure function of the spec — identical no matter
/// how many clients submit it or how much of it was served from cache:
///   {"ok":true,"spec_hash":H,"campaign":name,"points":N,"done":N}
[[nodiscard]] std::string submit_reply(const std::string& spec_hash,
                                       const std::string& campaign, int points, int done);

/// Server-lifetime counters, plus per-campaign progress when `campaign` is
/// non-empty (spec_hash echoes the request).
struct StatusInfo {
  std::uint64_t submissions = 0;  ///< submit requests accepted
  std::uint64_t computed = 0;     ///< points actually simulated
  std::uint64_t cache_hits = 0;   ///< points served from the result cache
  std::uint64_t campaigns = 0;    ///< distinct specs seen
  std::string campaign;           ///< optional per-campaign block
  std::string spec_hash;
  int points = 0;
  int done = 0;
  /// "complete" | "partial" — emitted with the per-campaign block when
  /// non-empty.
  std::string state;
};
[[nodiscard]] std::string status_reply(const StatusInfo& info);

/// {"ok":true,"record":<verbatim store line, JSON-escaped>}
[[nodiscard]] std::string query_reply(const std::string& record_line);

/// One streamed CSV row: {"csv":<line>}
[[nodiscard]] std::string export_row(const std::string& csv_line);
/// Export terminator: {"ok":true,"done":true,"rows":N}
[[nodiscard]] std::string export_done(std::uint64_t rows);

[[nodiscard]] std::string shutdown_reply();

/// Parse a reply line on the client side.
bool parse_reply(const std::string& line, exp::JsonValue& out, std::string& error);

}  // namespace nomc::svc
