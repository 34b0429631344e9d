#include "exp/result_store.hpp"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace nomc::exp {
namespace {

// ---- JSON subset parser --------------------------------------------------

class JsonParser {
 public:
  JsonParser(const std::string& text, std::string& error) : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing content after JSON value");
    return true;
  }

 private:
  bool fail(const std::string& message) {
    error_ = message + " (offset " + std::to_string(pos_) + ")";
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t length = std::strlen(word);
    if (text_.compare(pos_, length, word) != 0) return fail("invalid literal");
    pos_ += length;
    return true;
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          default: return fail("unsupported escape in string");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("control char in string");
      out += c;
    }
    return fail("unterminated string");
  }

  bool parse_value(JsonValue& out) {
    if (depth_ == kMaxJsonDepth)
      return fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
    ++depth_;
    const bool parsed = parse_nested_value(out);
    --depth_;
    return parsed;
  }

  bool parse_nested_value(JsonValue& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.type = JsonValue::Type::kObject;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
        ++pos_;
        skip_ws();
        JsonValue value;
        if (!parse_value(value)) return false;
        out.object.emplace_back(std::move(key), std::move(value));
        skip_ws();
        if (pos_ >= text_.size()) return fail("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out.type = JsonValue::Type::kArray;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      for (;;) {
        skip_ws();
        JsonValue value;
        if (!parse_value(value)) return false;
        out.array.push_back(std::move(value));
        skip_ws();
        if (pos_ >= text_.size()) return fail("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.string);
    }
    if (c == 't') {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.type = JsonValue::Type::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.type = JsonValue::Type::kNull;
      return literal("null");
    }
    // Number.
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) return fail("expected a JSON value");
    out.type = JsonValue::Type::kNumber;
    out.number = value;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }

  const std::string& text_;
  std::string& error_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< parse_value frames on the stack
};

bool numbers_from(const JsonValue* value, std::vector<double>& out) {
  if (value == nullptr || value->type != JsonValue::Type::kArray) return false;
  out.clear();
  out.reserve(value->array.size());
  for (const JsonValue& element : value->array) {
    if (element.type != JsonValue::Type::kNumber) return false;
    out.push_back(element.number);
  }
  return true;
}

}  // namespace

bool json_int(const JsonValue* value, int lo, int hi, int& out) {
  if (value == nullptr || value->type != JsonValue::Type::kNumber) return false;
  const double number = value->number;
  // Range-check before the cast: converting an out-of-range double is UB.
  if (!(number >= lo && number <= hi) || number != std::floor(number)) return false;
  out = static_cast<int>(number);
  return true;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool read_whole_file(const std::string& path, std::string& out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char buffer[1 << 14];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) out.append(buffer, got);
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  return ok;
}

bool parse_json(const std::string& text, JsonValue& out, std::string& error) {
  out = JsonValue{};
  return JsonParser{text, error}.parse(out);
}

void json_append_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void json_append_double(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

bool parse_record(const std::string& line, ResultRecord& out, std::string& error) {
  JsonValue root;
  if (!parse_json(line, root, error)) return false;
  if (root.type != JsonValue::Type::kObject) {
    error = "record is not a JSON object";
    return false;
  }
  out = ResultRecord{};

  if (!json_int(root.find("v"), 0, INT_MAX, out.version)) {
    error = "record has no version field";
    return false;
  }
  if (out.version != kStoreVersion) {
    error = "unsupported store version " + std::to_string(out.version) + " (this build reads v" +
            std::to_string(kStoreVersion) +
            "); regenerate the store with `nomc-campaign run <spec> --overwrite`";
    return false;
  }

  const JsonValue* campaign = root.find("campaign");
  const JsonValue* hash = root.find("spec_hash");
  if (campaign == nullptr || campaign->type != JsonValue::Type::kString ||
      hash == nullptr || hash->type != JsonValue::Type::kString ||
      !json_int(root.find("point"), 0, INT_MAX, out.point)) {
    error = "record missing campaign/spec_hash/point";
    return false;
  }
  out.campaign = campaign->string;
  out.spec_hash = hash->string;

  if (const JsonValue* sweep = root.find("sweep");
      sweep != nullptr && sweep->type == JsonValue::Type::kObject) {
    for (const auto& [key, value] : sweep->object) {
      out.sweep.emplace_back(key, value.type == JsonValue::Type::kString
                                      ? value.string
                                      : [&] {
                                          std::string text;
                                          json_append_double(text, value.number);
                                          return text;
                                        }());
    }
  }

  const JsonValue* params = root.find("params");
  const JsonValue* seed = params != nullptr ? params->find("seed") : nullptr;
  if (seed == nullptr || seed->type != JsonValue::Type::kNumber ||
      !json_int(params->find("trials"), 1, INT_MAX, out.trials)) {
    error = "record missing params.seed/params.trials";
    return false;
  }
  out.seed = seed->number;

  // Every column holds one value per network; pps, the first, sets the count.
  const JsonValue* per_network = root.find("per_network");
  for (const NetworkColumn& column : kNetworkColumns) {
    std::vector<double>& values = out.*column.values;
    if (per_network == nullptr || !numbers_from(per_network->find(column.name), values)) {
      error = std::string{"record missing per_network array "} + column.name;
      return false;
    }
    if (values.size() != out.pps.size()) {
      error = std::string{"record per_network "} + column.name + " holds " +
              std::to_string(values.size()) + " value(s) for " +
              std::to_string(out.pps.size()) + " network(s)";
      return false;
    }
  }
  const JsonValue* overall = root.find("overall_pps");
  const JsonValue* jain = root.find("jain");
  if (overall == nullptr || overall->type != JsonValue::Type::kNumber ||
      jain == nullptr || jain->type != JsonValue::Type::kNumber) {
    error = "record missing overall_pps/jain";
    return false;
  }
  out.overall_pps = overall->number;
  out.jain = jain->number;

  // per_trial: params.trials entries in seed order, each row one pps per network.
  const JsonValue* per_trial = root.find("per_trial");
  const JsonValue* rows = per_trial != nullptr ? per_trial->find(kTrialColumn.name) : nullptr;
  const auto trials = static_cast<std::size_t>(out.trials);
  bool ok = rows != nullptr && rows->type == JsonValue::Type::kArray &&
            rows->array.size() == trials &&
            numbers_from(per_trial->find("overall_pps"), out.trial_overall_pps) &&
            out.trial_overall_pps.size() == trials;
  out.trial_pps.resize(ok ? trials : 0);
  for (std::size_t trial = 0; ok && trial < trials; ++trial) {
    ok = numbers_from(&rows->array[trial], out.trial_pps[trial]) &&
         out.trial_pps[trial].size() == out.pps.size();
  }
  if (!ok) {
    error = "record per_trial does not hold params.trials (" + std::to_string(out.trials) +
            ") rows of " + std::to_string(out.pps.size()) + " network pps";
    return false;
  }
  return true;
}

bool scan_store(const std::string& path, const std::string& expected_hash,
                StoreScan& out, std::string& error) {
  out = StoreScan{};
  std::string content;
  if (!read_whole_file(path, content)) {
    error = "cannot read result store: " + path;
    return false;
  }

  std::size_t start = 0;
  int line_number = 0;
  while (start < content.size()) {
    ++line_number;
    const std::size_t newline = content.find('\n', start);
    const bool has_newline = newline != std::string::npos;
    const std::string line =
        content.substr(start, has_newline ? newline - start : std::string::npos);
    const std::size_t next = has_newline ? newline + 1 : content.size();

    ResultRecord record;
    std::string record_error;
    const bool parsed = !line.empty() && parse_record(line, record, record_error);
    if (!parsed || !has_newline) {
      // Only a torn *final* line is recoverable: it is what a kill mid-write
      // leaves behind. Anything unparsable earlier means the file is not one
      // of ours (or was edited) — refuse rather than silently drop data. A
      // whole record of another version is never torn.
      if (next >= content.size() && !foreign_version(record)) {
        out.truncated_tail = true;
        break;
      }
      error = "result store " + path + " line " + std::to_string(line_number) +
              ": " + (parsed ? "missing newline" : record_error);
      return false;
    }
    if (!expected_hash.empty() && record.spec_hash != expected_hash) {
      error = "result store " + path + " line " + std::to_string(line_number) +
              " was written by a different spec (hash " + record.spec_hash +
              ", expected " + expected_hash + ")";
      return false;
    }
    out.completed.insert(record.point);
    out.records.push_back(std::move(record));
    out.valid_prefix.append(content, start, next - start);
    start = next;
  }
  return true;
}

StoreWriter::~StoreWriter() { close(); }

bool StoreWriter::open(const std::string& path, bool truncate, std::string& error) {
  close();
  file_ = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file_ == nullptr) {
    error = "cannot open result store for writing: " + path;
    return false;
  }
  path_ = path;
  return true;
}

bool StoreWriter::append_line(const std::string& line, std::string& error) {
  if (file_ == nullptr) {
    error = "result store is not open";
    return false;
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
      std::fputc('\n', file_) == EOF || std::fflush(file_) != 0) {
    error = "write to result store failed: " + path_;
    return false;
  }
  return true;
}

void StoreWriter::close() {
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

OrderedCheckpointer::OrderedCheckpointer(StoreWriter& store, StoreWriter& timing,
                                         std::size_t max_pending)
    : store_{store}, timing_{timing}, max_pending_{max_pending > 0 ? max_pending : 1} {}

void OrderedCheckpointer::flush_ready() {
  for (auto ready = pending_.find(next_slot_); ready != pending_.end();
       ready = pending_.find(next_slot_)) {
    Entry& entry = ready->second;
    if (error_.empty()) {
      if (!store_.append_line(entry.record, error_)) break;
      if (!timing_.append_line(entry.timing, error_)) break;
      if (!entry.console.empty()) {
        std::fputs(entry.console.c_str(), stdout);
        std::fflush(stdout);
      }
      ++flushed_;
    }
    pending_.erase(ready);
    ++next_slot_;
  }
  space_cv_.notify_all();
}

bool OrderedCheckpointer::submit(int slot, std::string record_line, std::string timing_line,
                                 std::string console_line) {
  std::unique_lock<std::mutex> lock{mutex_};
  // The next-to-flush submitter bypasses the bound: it is the one submission
  // that lets the cursor advance, so waiting on it would deadlock.
  space_cv_.wait(lock, [&] {
    return slot == next_slot_ || pending_.size() < max_pending_ || !error_.empty();
  });
  if (!error_.empty()) return false;
  pending_[slot] =
      Entry{std::move(record_line), std::move(timing_line), std::move(console_line)};
  flush_ready();
  return error_.empty();
}

bool OrderedCheckpointer::finish(std::string& error) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (!error_.empty()) {
    error = error_;
    return false;
  }
  if (!pending_.empty()) {
    // Can only happen if a submitter died before calling submit (its slot is
    // a permanent gap); everything after it was buffered, not written.
    error = "checkpointer finished with " + std::to_string(pending_.size()) +
            " record(s) stuck behind missing slot " + std::to_string(next_slot_);
    return false;
  }
  return true;
}

std::string csv_header(const std::vector<std::string>& sweep_keys) {
  std::string header = "campaign,point";
  for (const std::string& key : sweep_keys) {
    header += ',';
    header += csv_escape(key);
  }
  header += ",network";
  for (const NetworkColumn& column : kNetworkColumns) {
    header += ',';
    header += column.name;
  }
  header += ",overall_pps,jain\n";
  return header;
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (const char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void csv_collect_sweep_keys(const ResultRecord& record, std::vector<std::string>& keys) {
  // Union of swept keys, in first-seen order, so mixed records still line up.
  for (const auto& [key, value] : record.sweep) {
    bool known = false;
    for (const std::string& existing : keys) known |= existing == key;
    if (!known) keys.push_back(key);
  }
}

std::vector<std::string> csv_record_rows(const ResultRecord& record,
                                         const std::vector<std::string>& sweep_keys) {
  std::vector<std::string> rows;
  rows.reserve(record.pps.size());
  for (std::size_t n = 0; n < record.pps.size(); ++n) {
    std::string row = csv_escape(record.campaign);
    row += ',';
    row += std::to_string(record.point);
    for (const std::string& key : sweep_keys) {
      row += ',';
      for (const auto& [sweep_key, value] : record.sweep) {
        if (sweep_key == key) {
          row += csv_escape(value);
          break;
        }
      }
    }
    row += ',';
    row += std::to_string(n);
    row += ',';
    for (const NetworkColumn& column : kNetworkColumns) {
      json_append_double(row, (record.*column.values)[n]);
      row += ',';
    }
    json_append_double(row, record.overall_pps);
    row += ',';
    json_append_double(row, record.jain);
    rows.push_back(std::move(row));
  }
  return rows;
}

bool export_csv(const std::vector<ResultRecord>& records, std::FILE* out) {
  std::vector<std::string> sweep_keys;
  for (const ResultRecord& record : records) csv_collect_sweep_keys(record, sweep_keys);

  const std::string header = csv_header(sweep_keys);
  if (std::fwrite(header.data(), 1, header.size(), out) != header.size()) return false;

  for (const ResultRecord& record : records) {
    for (std::string& row : csv_record_rows(record, sweep_keys)) {
      row += '\n';
      if (std::fwrite(row.data(), 1, row.size(), out) != row.size()) return false;
    }
  }
  return true;
}

}  // namespace nomc::exp
