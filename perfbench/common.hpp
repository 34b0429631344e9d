// Shared plumbing of the benchmark driver: arguments, the report every
// workload fills, the in-memory span recorder, the counting trace sink and
// the scheduler probe that measure the simulator layers from outside.
//
// Nothing here reaches into src/ internals: the layers are observed through
// public seams only (Scheduler::set_trace, events scheduled on the
// scenario's Scheduler, const Medium queries, Scenario result accessors).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "net/scenario.hpp"
#include "sim/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool toy = false;          ///< tiny sizes for the self-test
  std::string work_dir;      ///< scratch space for stores/sockets (relative ok)
};

/// Everything one run reports. Workloads set the metrics they measure; the
/// driver fills every declared metric a workload does not touch with 0
/// (per-layer only — a missing end-to-end metric is a driver error).
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> digests;  ///< output digests, hex
  long long attempted = 0;
  long long failed = 0;
  long long gates = 0;  ///< correctness-gate checks among the attempted ones

  /// Count one attempted operation or correctness check; a failed one is
  /// also printed to stderr so every mismatch is visible.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  /// A check that compares outputs against a reference (golden bytes, an
  /// untraced digest, a claim band); counted apart so a self-test can tell
  /// the gate ran.
  void gate(bool ok, const std::string& what) {
    ++gates;
    check(ok, what);
  }
  void set(const std::string& name, double value) { metrics[name] = value; }
};

/// 64-bit FNV-1a, used for output digests (not security).
class Digest {
 public:
  void add(const std::string& bytes) {
    for (const unsigned char c : bytes) {
      hash_ ^= c;
      hash_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t value);

/// Quantile by linear interpolation (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// In-memory spans (name, start, end, parent, trial), written out once at
/// the end of a traced run. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< host seconds since the tracer was created
    double end_s = 0.0;
    int parent = -1;       ///< index of the causing span, -1 for a root
    int trial = -1;        ///< trial id, -1 when not inside a trial
  };

  explicit Tracer(bool enabled) : enabled_{enabled}, origin_{Clock::now()} {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Open a span; returns its id (-1 when disabled).
  int begin(const std::string& name, int parent = -1, int trial = -1);
  void end(int id);
  /// Record a finished span from explicit host times.
  int add(const std::string& name, Clock::time_point start, Clock::time_point end,
          int parent = -1, int trial = -1);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// One JSON object per line. Returns false on an I/O error.
  bool write(const std::string& path) const;

 private:
  [[nodiscard]] double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Counts the simulated statistics the stack emits as trace records. A
/// counter, not a buffer: a city run emits millions of records.
class CountingSink final : public nomc::sim::TraceSink {
 public:
  void emit(const nomc::sim::TraceRecord& record) override;

  std::uint64_t tx_start = 0;
  std::uint64_t rx_ok = 0;
  std::uint64_t rx_fail = 0;
  std::uint64_t cca_busy = 0;
  std::uint64_t access_failure = 0;
  std::uint64_t threshold_moves = 0;
};

/// Layer samples taken by probe events riding on a scenario's scheduler.
struct ProbeStats {
  std::uint64_t probes = 0;           ///< probe events executed
  double pending_sum = 0.0;           ///< Σ Scheduler::pending() samples
  double active_sum = 0.0;            ///< Σ Medium::active_count() samples
  std::uint64_t sense_calls = 0;      ///< timed Medium::sense_energy calls
  double sense_s = 0.0;               ///< host seconds inside those calls
};

/// Schedules a chain of probe events every `period` over [start, end] on
/// `scenario`'s scheduler. The first probe (at `start`) and the last (at
/// `end`) stamp host times, so the span between them is the run of the
/// simulation itself; each probe samples the queue and the air, and times a
/// few sense_energy queries against the live active set. Queries are const
/// Medium calls (they may fill memo caches, which is bit-identical by
/// design); the digests of a traced run prove the probes perturb nothing.
class Probe {
 public:
  Probe(nomc::net::Scenario& scenario, nomc::sim::SimTime start, nomc::sim::SimTime end,
        nomc::sim::SimTime period, ProbeStats& stats);
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] Clock::time_point first_at() const { return first_at_; }
  [[nodiscard]] Clock::time_point last_at() const { return last_at_; }
  /// Scheduler::executed() at the last probe, probe events excluded.
  [[nodiscard]] std::uint64_t events_at_end() const { return events_at_end_; }
  /// Probe events this probe has executed so far.
  [[nodiscard]] std::uint64_t own_events() const { return own_events_; }

 private:
  void fire();

  nomc::net::Scenario& scenario_;
  nomc::sim::SimTime end_;
  nomc::sim::SimTime period_;
  ProbeStats& stats_;
  std::uint64_t own_events_ = 0;
  std::uint64_t events_at_end_ = 0;
  bool started_ = false;
  bool finished_ = false;
  Clock::time_point first_at_{};
  Clock::time_point last_at_{};
};

/// Set the sim, phy, mac and dcn per-layer metrics of one traced run: the
/// sink's counts, the probe samples, and `events` executed over `run_s` host
/// seconds. `deliveries` is the window's delivered frames.
void report_sim_layers(Report& report, const CountingSink& sink, const ProbeStats& probes,
                       double run_s, std::uint64_t events, double deliveries);

/// StoreIndex::find + read_line over every record of the given stores
/// (path, spec hash), µs per lookup; 0 after a failed open or lookup, which
/// is also counted in `report`.
[[nodiscard]] double measure_index_find_us(
    const std::vector<std::pair<std::string, std::string>>& stores, Report& report);

/// Standalone phy::oqpsk_ber cost over −10…15 dB, ns per call.
[[nodiscard]] double measure_ber_ns();

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Read a whole file; false when it cannot be opened.
bool read_file(const std::string& path, std::string& out);

/// Logical CPUs this process may run on (sched_getaffinity).
[[nodiscard]] int nproc();

// The three workloads. Each fills `report` and returns normally; fatal
// set-up errors are reported through report.check and an early return.
void run_paper_figs(const Args& args, Report& report, Tracer& tracer);
void run_city_field(const Args& args, Report& report, Tracer& tracer);
void run_service_mix(const Args& args, Report& report, Tracer& tracer);

}  // namespace perfbench
