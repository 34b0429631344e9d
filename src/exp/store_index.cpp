#include "exp/store_index.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <cstring>

namespace nomc::exp {
namespace {

constexpr const char* kIndexHeader = "nomc-idx 1";

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

/// Parse an unsigned decimal field starting at `begin`. It must start with a
/// digit (strtoull alone skips blanks and accepts a sign, wrapping "-1" to
/// 2^64 - 1) and fit in 64 bits.
bool parse_count(const char* begin, char** end, std::uint64_t& out) {
  if (*begin < '0' || *begin > '9') return false;
  errno = 0;
  out = std::strtoull(begin, end, 10);
  return errno != ERANGE;
}

/// Parse one "<hash> <point> <offset> <length>" sidecar line.
bool parse_index_line(const std::string& line, StoreIndex::Entry& out) {
  const char* cursor = line.c_str();
  const char* space = std::strchr(cursor, ' ');
  if (space == nullptr || space == cursor) return false;
  out.spec_hash.assign(cursor, static_cast<std::size_t>(space - cursor));
  char* end = nullptr;
  std::uint64_t point = 0;
  if (!parse_count(space + 1, &end, point) || *end != ' ' ||
      point > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
    return false;
  }
  out.point = static_cast<int>(point);
  if (!parse_count(end + 1, &end, out.offset) || *end != ' ') return false;
  if (!parse_count(end + 1, &end, out.length) || *end != '\0' || out.length == 0) return false;
  // The entry must end inside the 64-bit byte range, or coverage wraps.
  return out.length <= std::numeric_limits<std::uint64_t>::max() - out.offset;
}

/// Load the sidecar: header + entry lines, dropping a torn final line. Any
/// deeper damage (bad header, malformed interior line, non-contiguous
/// coverage) returns an empty vector — the caller rebuilds from the store.
std::vector<StoreIndex::Entry> load_sidecar(const std::string& path) {
  std::string content;
  if (!read_whole_file(path, content)) return {};

  std::vector<StoreIndex::Entry> entries;
  std::size_t start = 0;
  bool saw_header = false;
  std::uint64_t expect_offset = 0;
  while (start < content.size()) {
    const std::size_t newline = content.find('\n', start);
    const bool has_newline = newline != std::string::npos;
    const std::string line =
        content.substr(start, has_newline ? newline - start : std::string::npos);
    start = has_newline ? newline + 1 : content.size();
    if (!has_newline) break;  // torn final line: drop it, keep the prefix

    if (!saw_header) {
      if (line != kIndexHeader) return {};
      saw_header = true;
      continue;
    }
    StoreIndex::Entry entry;
    if (!parse_index_line(line, entry) || entry.offset != expect_offset) {
      // A malformed or non-contiguous line that is NOT final means the file
      // is not one of ours; discard it all rather than trust a prefix.
      return start >= content.size() ? entries : std::vector<StoreIndex::Entry>{};
    }
    expect_offset = entry.offset + entry.length;
    entries.push_back(std::move(entry));
  }
  return saw_header ? entries : std::vector<StoreIndex::Entry>{};
}

bool write_sidecar(const std::string& path, const std::vector<StoreIndex::Entry>& entries,
                   std::string& error) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    error = "cannot write store index: " + path;
    return false;
  }
  std::string text = kIndexHeader;
  text += '\n';
  for (const StoreIndex::Entry& entry : entries) {
    text += entry.spec_hash + " " + std::to_string(entry.point) + " " +
            std::to_string(entry.offset) + " " + std::to_string(entry.length) + "\n";
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size() &&
                  std::fflush(file) == 0;
  std::fclose(file);
  if (!ok) error = "write to store index failed: " + path;
  return ok;
}

}  // namespace

StoreIndex::~StoreIndex() { close(); }

void StoreIndex::close() {
  if (store_file_ != nullptr) std::fclose(store_file_);
  store_file_ = nullptr;
  store_path_.clear();
  entries_.clear();
  by_key_.clear();
  covered_ = 0;
  truncated_tail_ = false;
}

std::string StoreIndex::index_path(const std::string& store_path) {
  return store_path + ".idx";
}

std::string StoreIndex::key(const std::string& spec_hash, int point) {
  return spec_hash + ":" + std::to_string(point);
}

const StoreIndex::Entry* StoreIndex::find(const std::string& spec_hash, int point) const {
  const auto it = by_key_.find(key(spec_hash, point));
  return it == by_key_.end() ? nullptr : &entries_[it->second];
}

bool StoreIndex::open(const std::string& store_path, const std::string& expected_hash,
                      std::string& error) {
  close();
  store_file_ = std::fopen(store_path.c_str(), "rb");
  if (store_file_ == nullptr) {
    error = "cannot open result store: " + store_path;
    return false;
  }
  store_path_ = store_path;
  if (std::fseek(store_file_, 0, SEEK_END) != 0) {
    error = "cannot seek result store: " + store_path;
    close();
    return false;
  }
  const std::uint64_t store_size = static_cast<std::uint64_t>(std::ftell(store_file_));

  // 1. Load the sidecar and decide how much of it to trust.
  entries_ = load_sidecar(index_path(store_path));
  const std::size_t loaded = entries_.size();
  covered_ = entries_.empty() ? 0 : entries_.back().offset + entries_.back().length;
  if (covered_ > store_size) {
    // The store shrank (overwrite, prefix rewrite after a crash): every
    // offset is suspect, rebuild from scratch.
    entries_.clear();
    covered_ = 0;
  }
  if (!expected_hash.empty()) {
    // A foreign hash in the sidecar is damage to derived data until the
    // store itself says so: rebuild, and let step 3 judge the store's own
    // records.
    for (const Entry& entry : entries_) {
      if (entry.spec_hash != expected_hash) {
        entries_.clear();
        covered_ = 0;
        break;
      }
    }
  }
  if (!entries_.empty()) {
    // Spot-check the newest trusted entry against its actual bytes; a store
    // rewritten in place to the same length would otherwise go unnoticed.
    const Entry& last = entries_.back();
    std::string line;
    ResultRecord record;
    std::string check_error;
    if (!read_line(last, line, check_error) ||
        !parse_record(line, record, check_error) || record.point != last.point ||
        record.spec_hash != last.spec_hash) {
      entries_.clear();
      covered_ = 0;
    }
  }

  // 2. Scan only the uncovered tail of the store for records the sidecar
  //    does not know yet (all of it when the sidecar was rebuilt).
  if (covered_ < store_size) {
    if (std::fseek(store_file_, static_cast<long>(covered_), SEEK_SET) != 0) {
      error = "cannot seek result store: " + store_path;
      close();
      return false;
    }
    std::string tail;
    tail.reserve(static_cast<std::size_t>(store_size - covered_));
    char buffer[1 << 14];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, store_file_)) > 0)
      tail.append(buffer, got);
    if (std::ferror(store_file_) != 0) {
      error = "error reading result store: " + store_path;
      close();
      return false;
    }

    std::size_t start = 0;
    while (start < tail.size()) {
      const std::size_t newline = tail.find('\n', start);
      const bool has_newline = newline != std::string::npos;
      const std::string line =
          tail.substr(start, has_newline ? newline - start : std::string::npos);
      const std::size_t next = has_newline ? newline + 1 : tail.size();

      ResultRecord record;
      std::string record_error;
      const bool parsed = !line.empty() && parse_record(line, record, record_error);
      if (!parsed || !has_newline) {
        // Mirror scan_store: only a torn *final* line is the signature of a
        // kill mid-write; damage anywhere else, or a whole record of another
        // version, is a corrupt store.
        if (next >= tail.size() && !foreign_version(record)) {
          truncated_tail_ = true;
          break;
        }
        error = "result store " + store_path + ": " +
                (parsed ? "missing newline" : record_error);
        close();
        return false;
      }
      Entry entry;
      entry.spec_hash = record.spec_hash;
      entry.point = record.point;
      entry.offset = covered_ + start;
      entry.length = next - start;
      entries_.push_back(std::move(entry));
      start = next;
    }
    covered_ = entries_.empty() ? 0 : entries_.back().offset + entries_.back().length;
  }

  // 3. Enforce the expected hash and build the lookup map.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (!expected_hash.empty() && entry.spec_hash != expected_hash) {
      error = "result store " + store_path + " record for point " +
              std::to_string(entry.point) + " was written by a different spec (hash " +
              entry.spec_hash + ", expected " + expected_hash + ")";
      close();
      return false;
    }
    by_key_[key(entry.spec_hash, entry.point)] = i;  // duplicate point: last wins
  }

  // 4. Persist the reconciliation whenever the sidecar did not already hold
  //    exactly these entries.
  if (entries_.size() != loaded || loaded == 0) {
    if (!write_sidecar(index_path(store_path), entries_, error)) {
      close();
      return false;
    }
  }
  return true;
}

bool StoreIndex::read_line(const Entry& entry, std::string& line, std::string& error) const {
  if (store_file_ == nullptr) {
    error = "store index is not open";
    return false;
  }
  if (std::fseek(store_file_, static_cast<long>(entry.offset), SEEK_SET) != 0) {
    error = "cannot seek result store: " + store_path_;
    return false;
  }
  line.resize(static_cast<std::size_t>(entry.length));
  if (std::fread(line.data(), 1, line.size(), store_file_) != line.size()) {
    error = "short read from result store: " + store_path_;
    return false;
  }
  if (line.empty() || line.back() != '\n') {
    error = "index entry for point " + std::to_string(entry.point) +
            " does not end at a record boundary in " + store_path_;
    return false;
  }
  line.pop_back();
  return true;
}

bool StoreIndex::read_record(const Entry& entry, ResultRecord& out, std::string& error) const {
  std::string line;
  if (!read_line(entry, line, error)) return false;
  if (!parse_record(line, out, error)) {
    error = "result store " + store_path_ + " point " + std::to_string(entry.point) + ": " +
            error;
    return false;
  }
  return true;
}

bool export_csv_lines(const StoreIndex& index,
                      const std::function<bool(const std::string& line)>& emit,
                      std::string& error) {
  // Pass 1: union of swept keys in first-seen order (same rule as
  // export_csv, so the emitted bytes are identical).
  std::vector<std::string> sweep_keys;
  ResultRecord record;
  for (const StoreIndex::Entry& entry : index.entries()) {
    if (!index.read_record(entry, record, error)) return false;
    csv_collect_sweep_keys(record, sweep_keys);
  }

  std::string header = csv_header(sweep_keys);
  header.pop_back();  // emit() lines carry no trailing newline
  if (!emit(header)) {
    error = "CSV consumer aborted";
    return false;
  }

  // Pass 2: rows, one record in memory at a time.
  for (const StoreIndex::Entry& entry : index.entries()) {
    if (!index.read_record(entry, record, error)) return false;
    for (const std::string& row : csv_record_rows(record, sweep_keys)) {
      if (!emit(row)) {
        error = "CSV consumer aborted";
        return false;
      }
    }
  }
  return true;
}

bool export_csv_indexed(const StoreIndex& index, std::FILE* out, std::string& error) {
  return export_csv_lines(
      index,
      [out](const std::string& line) {
        return std::fwrite(line.data(), 1, line.size(), out) == line.size() &&
               std::fputc('\n', out) != EOF;
      },
      error);
}

}  // namespace nomc::exp
