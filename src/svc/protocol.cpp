#include "svc/protocol.hpp"

#include <limits>

namespace nomc::svc {

void LineSplitter::feed(const std::string& bytes) {
  for (const char byte : bytes) {
    if (byte == '\n') {
      if (discarding_) {
        lines_.emplace_back();
        oversized_.push_back(true);
        discarding_ = false;
      } else {
        lines_.push_back(std::move(buffer_));
        oversized_.push_back(false);
      }
      buffer_.clear();
      continue;
    }
    if (discarding_) continue;
    buffer_.push_back(byte);
    if (buffer_.size() >= max_line_) {
      buffer_.clear();
      discarding_ = true;
    }
  }
}

bool LineSplitter::take(std::string& line, bool& oversized) {
  if (next_ >= lines_.size()) {
    if (next_ != 0) {
      lines_.clear();
      oversized_.clear();
      next_ = 0;
    }
    return false;
  }
  line = std::move(lines_[next_]);
  oversized = oversized_[next_];
  ++next_;
  return true;
}

bool parse_request(const std::string& line, Request& out, std::string& error) {
  exp::JsonValue root;
  if (!exp::parse_json(line, root, error)) {
    error = "bad JSON: " + error;
    return false;
  }
  if (root.type != exp::JsonValue::Type::kObject) {
    error = "request must be a JSON object";
    return false;
  }
  const exp::JsonValue* op = root.find("op");
  if (op == nullptr || op->type != exp::JsonValue::Type::kString || op->string.empty()) {
    error = "request needs a string \"op\"";
    return false;
  }
  out = Request{};
  out.op = op->string;
  if (const exp::JsonValue* spec = root.find("spec");
      spec != nullptr && spec->type == exp::JsonValue::Type::kString)
    out.spec = spec->string;
  if (const exp::JsonValue* hash = root.find("spec_hash");
      hash != nullptr && hash->type == exp::JsonValue::Type::kString)
    out.spec_hash = hash->string;
  if (const exp::JsonValue* point = root.find("point");
      point != nullptr && point->type == exp::JsonValue::Type::kNumber) {
    // The JSON parser takes numbers through strtod, which also reads "inf",
    // "-nan" and 1e999; casting those to int is undefined, so range-check first.
    if (!(point->number >= std::numeric_limits<int>::min() &&
          point->number <= std::numeric_limits<int>::max())) {
      error = "\"point\" is out of range";
      return false;
    }
    out.point = static_cast<int>(point->number);
    out.has_point = true;
  }
  return true;
}

std::string error_reply(const std::string& message) {
  std::string out = "{\"ok\":false,\"error\":";
  exp::json_append_string(out, message);
  out += '}';
  return out;
}

std::string pong_reply() { return "{\"ok\":true,\"pong\":true}"; }

std::string submit_reply(const std::string& spec_hash, const std::string& campaign,
                         int points, int done) {
  std::string out = "{\"ok\":true,\"spec_hash\":";
  exp::json_append_string(out, spec_hash);
  out += ",\"campaign\":";
  exp::json_append_string(out, campaign);
  out += ",\"points\":" + std::to_string(points);
  out += ",\"done\":" + std::to_string(done);
  out += '}';
  return out;
}

std::string status_reply(const StatusInfo& info) {
  std::string out = "{\"ok\":true,\"submissions\":" + std::to_string(info.submissions);
  out += ",\"computed\":" + std::to_string(info.computed);
  out += ",\"cache_hits\":" + std::to_string(info.cache_hits);
  out += ",\"campaigns\":" + std::to_string(info.campaigns);
  if (!info.campaign.empty()) {
    out += ",\"campaign\":";
    exp::json_append_string(out, info.campaign);
    out += ",\"spec_hash\":";
    exp::json_append_string(out, info.spec_hash);
    out += ",\"points\":" + std::to_string(info.points);
    out += ",\"done\":" + std::to_string(info.done);
    if (!info.state.empty()) {
      out += ",\"state\":";
      exp::json_append_string(out, info.state);
    }
  }
  out += '}';
  return out;
}

std::string query_reply(const std::string& record_line) {
  std::string out = "{\"ok\":true,\"record\":";
  exp::json_append_string(out, record_line);
  out += '}';
  return out;
}

std::string export_row(const std::string& csv_line) {
  std::string out = "{\"csv\":";
  exp::json_append_string(out, csv_line);
  out += '}';
  return out;
}

std::string export_done(std::uint64_t rows) {
  return "{\"ok\":true,\"done\":true,\"rows\":" + std::to_string(rows) + "}";
}

std::string shutdown_reply() { return "{\"ok\":true,\"shutdown\":true}"; }

bool parse_reply(const std::string& line, exp::JsonValue& out, std::string& error) {
  if (!exp::parse_json(line, out, error)) {
    error = "bad reply JSON: " + error;
    return false;
  }
  if (out.type != exp::JsonValue::Type::kObject) {
    error = "reply must be a JSON object";
    return false;
  }
  return true;
}

}  // namespace nomc::svc
