// Versioned JSONL result store for campaign runs.
//
// One line per completed sweep point, appended in point order and flushed
// after every record, so an interrupted campaign loses at most the line
// being written. Record schema (v2):
//
//   {"v":2,"campaign":<name>,"spec_hash":<16 hex>,"point":<index>,
//    "sweep":{<swept key>:<value text>, ...},
//    "params":{...every key the point sets (exp::key_settings)...},
//    "per_network":{<column>:[<network 0>,...], ...},
//    "overall_pps":<num>,"jain":<num>,
//    "per_trial":{"overall_pps":[<trial 0>,...],<pps>:[[<network 0>,...],...]}}
//
// per_network holds one array per kNetworkColumns row (pps, prr,
// backoffs_per_s, drops_per_s); per_trial keeps the pps column per trial.
// per_network and overall_pps are seed-ordered means of the trials that
// per_trial lists in seed order. A v1 store is refused; there is no migration.
//
// The record bytes are a pure function of (spec, point): wall-clock timing
// lives in a separate "<store>.timing" sidecar, so the primary store is
// byte-identical whether a campaign ran straight through, was interrupted
// and resumed, or used a different --jobs value.
#pragma once

#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace nomc::exp {

inline constexpr int kStoreVersion = 2;

// ---- Minimal JSON subset -------------------------------------------------
// Parses exactly what the store writes (objects, arrays, strings with basic
// escapes, numbers, true/false/null); self-contained, no external deps.

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
};

/// Append the whole file at `path` to `out`; false when it cannot be opened
/// or read.
bool read_whole_file(const std::string& path, std::string& out);

/// Parse one complete JSON document (trailing whitespace allowed). Arrays
/// and objects nested deeper than kMaxJsonDepth are an error, so hostile
/// input cannot exhaust the stack.
inline constexpr int kMaxJsonDepth = 64;
bool parse_json(const std::string& text, JsonValue& out, std::string& error);

/// `value` as an int in [lo, hi]; false when absent, not a number, not whole
/// or out of range.
bool json_int(const JsonValue* value, int lo, int hi, int& out);

/// Append `text` JSON-escaped, in quotes.
void json_append_string(std::string& out, const std::string& text);
/// Append a number round-trippable to the same double (%.17g).
void json_append_double(std::string& out, double value);

// ---- Record model --------------------------------------------------------

/// The per-network result columns: one value per network, network 0 first.
/// A trial, a point's mean and a parsed record all carry them.
struct NetworkColumns {
  std::vector<double> pps;
  std::vector<double> prr;
  std::vector<double> backoffs_per_s;
  std::vector<double> drops_per_s;
};

/// One per-network column: its name in the record's per_network object and
/// in the CSV header, and its member. The trial merge, the record, its
/// reader and the CSV export all walk kNetworkColumns, in this order.
struct NetworkColumn {
  const char* name;
  std::vector<double> NetworkColumns::*values;
};
inline constexpr NetworkColumn kNetworkColumns[] = {
    {"pps", &NetworkColumns::pps},
    {"prr", &NetworkColumns::prr},
    {"backoffs_per_s", &NetworkColumns::backoffs_per_s},
    {"drops_per_s", &NetworkColumns::drops_per_s},
};
/// The column per_trial keeps for each trial.
inline constexpr const NetworkColumn& kTrialColumn = kNetworkColumns[0];

struct ResultRecord : NetworkColumns {
  int version = 0;
  std::string campaign;
  std::string spec_hash;
  int point = -1;
  std::vector<std::pair<std::string, std::string>> sweep;  ///< declaration order
  double overall_pps = 0.0;
  double jain = 0.0;
  int trials = 0;     ///< params.trials
  double seed = 0.0;  ///< params.seed as a JSON number (exact below 2^53)
  std::vector<double> trial_overall_pps;       ///< per_trial.overall_pps, seed order
  std::vector<std::vector<double>> trial_pps;  ///< per_trial's kTrialColumn[trial][network]
};

/// Parse one JSONL line into a record. Rejects a per_network column or a
/// per_trial row whose length is not the network count, a per_trial that
/// disagrees with params.trials, and other versions
/// (leaving `out.version` set, so foreign_version can tell them from a torn line).
bool parse_record(const std::string& line, ResultRecord& out, std::string& error);

/// True when parse_record refused `refused` as a whole record of another
/// store version. Such a line is an error wherever it sits, never a torn tail.
[[nodiscard]] inline bool foreign_version(const ResultRecord& refused) {
  return refused.version != 0 && refused.version != kStoreVersion;
}

/// Result of scanning an existing store file.
struct StoreScan {
  std::vector<ResultRecord> records;
  std::set<int> completed;     ///< point indices present
  std::string valid_prefix;    ///< the verbatim bytes of all complete records
  bool truncated_tail = false; ///< a torn trailing line was dropped
};

/// Read a store and validate every complete line. A torn final line (no
/// trailing newline, or unparsable — the signature of a kill mid-write) is
/// dropped and reported via `truncated_tail`; an unparsable line anywhere
/// else, or a whole record of another store version anywhere, is an error.
/// When `expected_hash` is non-empty, every record must carry it (a mismatch
/// means the spec changed since the store was written).
bool scan_store(const std::string& path, const std::string& expected_hash,
                StoreScan& out, std::string& error);

/// Append-only line writer; flushes after every line.
class StoreWriter {
 public:
  StoreWriter() = default;
  ~StoreWriter();
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// `truncate` starts the file fresh; otherwise appends.
  bool open(const std::string& path, bool truncate, std::string& error);
  /// Write `line` plus '\n', then flush.
  bool append_line(const std::string& line, std::string& error);
  void close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Reorders concurrently completed records back into slot order before they
/// reach the store. Slots are dense 0..n-1 (the campaign engine numbers the
/// points it is about to compute); any thread may submit any slot, and the
/// checkpointer writes record + timing lines strictly in slot order — the
/// store's bytes cannot depend on completion order.
///
/// The reorder buffer is bounded: submit() blocks while `max_pending`
/// out-of-order records are already waiting, unless the submitted slot is
/// the very one the flush cursor needs (that submitter must never wait, so
/// the flush cursor always advances and the wait cannot deadlock).
class OrderedCheckpointer {
 public:
  /// Lines flush to `store` and `timing`; a non-empty console line is
  /// printed to stdout at flush time, so progress output is in slot order
  /// too. Both writers must outlive the checkpointer.
  OrderedCheckpointer(StoreWriter& store, StoreWriter& timing, std::size_t max_pending);

  /// Thread-safe. Returns false once any flush has failed (later submits
  /// become no-ops; the first error is reported by finish()).
  bool submit(int slot, std::string record_line, std::string timing_line,
              std::string console_line);

  /// True when every submitted record flushed cleanly and no gaps remain;
  /// fills `error` otherwise. Call after all submitters have finished.
  bool finish(std::string& error);

 private:
  struct Entry {
    std::string record, timing, console;
  };
  /// Flush consecutive entries starting at next_slot_. Caller holds mutex_.
  void flush_ready();

  StoreWriter& store_;
  StoreWriter& timing_;
  std::size_t max_pending_;
  std::mutex mutex_;
  std::condition_variable space_cv_;  // submitters wait here for buffer space
  std::map<int, Entry> pending_;      // completed slots ahead of the cursor
  int next_slot_ = 0;                 // flush cursor
  int flushed_ = 0;
  std::string error_;
};

/// Long-format CSV: one row per (point, network), sweep assignments as
/// leading columns. Plot-friendly (pandas/R) without JSON tooling.
/// Materializes nothing beyond the caller's `records`; the streaming path
/// over a store on disk is exp::export_csv_indexed (store_index.hpp), which
/// emits byte-identical output one record at a time.
bool export_csv(const std::vector<ResultRecord>& records, std::FILE* out);

/// Append `record`'s swept keys to `keys` in first-seen order (no
/// duplicates). Folding every record of a store through this yields the
/// sweep-key columns export_csv uses, without holding the records.
void csv_collect_sweep_keys(const ResultRecord& record, std::vector<std::string>& keys);

/// The export_csv data rows for one parsed record — one string per network,
/// no trailing newline — against the given sweep-key columns. export_csv and
/// the streaming exporter share this, so their bytes cannot diverge.
[[nodiscard]] std::vector<std::string> csv_record_rows(
    const ResultRecord& record, const std::vector<std::string>& sweep_keys);

/// The export_csv header for the given sweep-key columns. The fixed columns
/// and their order are a pinned public schema (tests/exp/store_test.cpp):
///   campaign,point,<sweep keys...>,network,pps,prr,backoffs_per_s,
///   drops_per_s,overall_pps,jain
/// New store fields must append columns, never reorder these.
[[nodiscard]] std::string csv_header(const std::vector<std::string>& sweep_keys);

/// Quote a CSV field when it contains a comma, quote, or newline.
[[nodiscard]] std::string csv_escape(const std::string& field);

}  // namespace nomc::exp
