#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "exp/result_store.hpp"
#include "exp/store_index.hpp"
#include "phy/modulation.hpp"

namespace perfbench {

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

std::string Digest::hex() const { return hex64(hash_); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int Tracer::begin(const std::string& name, int parent, int trial) {
  if (!enabled_) return -1;
  const double now = at(Clock::now());
  spans_.push_back({name, now, now, parent, trial});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = at(Clock::now());
}

int Tracer::add(const std::string& name, Clock::time_point start, Clock::time_point end,
                int parent, int trial) {
  if (!enabled_) return -1;
  spans_.push_back({name, at(start), at(end), parent, trial});
  return static_cast<int>(spans_.size() - 1);
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string name;
    nomc::exp::json_append_string(name, s.name);
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":%s,\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d,"
                 "\"trial\":%d}\n",
                 i, name.c_str(), s.start_s, s.end_s, s.parent, s.trial);
  }
  return std::fclose(out) == 0;
}

void CountingSink::emit(const nomc::sim::TraceRecord& record) {
  const char* event = record.event;
  switch (record.category[0]) {
    case 'p':  // phy (ppr records are not counted)
      if (record.category[1] != 'h') return;
      if (std::strcmp(event, "tx_start") == 0) {
        ++tx_start;
      } else if (std::strcmp(event, "rx_ok") == 0) {
        ++rx_ok;
      } else if (std::strcmp(event, "rx_fail") == 0) {
        ++rx_fail;
      }
      return;
    case 'm':  // mac
      if (std::strcmp(event, "cca_busy") == 0) {
        ++cca_busy;
      } else if (std::strcmp(event, "access_failure") == 0) {
        ++access_failure;
      }
      return;
    case 'd':  // dcn
      if (std::strcmp(event, "threshold_lower") == 0 ||
          std::strcmp(event, "threshold_raise") == 0) {
        ++threshold_moves;
      }
      return;
    default:
      return;
  }
}

Probe::Probe(nomc::net::Scenario& scenario, nomc::sim::SimTime start, nomc::sim::SimTime end,
             nomc::sim::SimTime period, ProbeStats& stats)
    : scenario_{scenario}, end_{end}, period_{period}, stats_{stats} {
  scenario_.scheduler().schedule_at(start, [this] { fire(); });
}

void Probe::fire() {
  nomc::sim::Scheduler& scheduler = scenario_.scheduler();
  const Clock::time_point now = Clock::now();
  ++own_events_;
  ++stats_.probes;
  const std::uint64_t events = scheduler.executed() - own_events_;
  if (!started_) {
    started_ = true;
    first_at_ = now;
  }
  stats_.pending_sum += static_cast<double>(scheduler.pending());
  nomc::phy::Medium& medium = scenario_.medium();
  stats_.active_sum += static_cast<double>(medium.active_count());

  // Time a few CCA-style reads at receivers spread over the deployment.
  const int networks = scenario_.network_count();
  if (networks > 0) {
    constexpr int kReads = 4;
    volatile double sink = 0.0;  // keeps the reads from being optimised out
    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < kReads; ++k) {
      const std::uint64_t pick = stats_.probes * kReads + static_cast<std::uint64_t>(k);
      const int network = static_cast<int>(pick % static_cast<std::uint64_t>(networks));
      const int links = scenario_.link_count(network);
      const int link = static_cast<int>((pick / static_cast<std::uint64_t>(networks)) %
                                        static_cast<std::uint64_t>(links));
      const nomc::phy::Radio& radio = scenario_.receiver_radio(network, link);
      sink = sink + medium.sense_energy(radio.node(), radio.channel()).value;
    }
    stats_.sense_s += seconds_since(t0);
    stats_.sense_calls += kReads;
  }

  const nomc::sim::SimTime next = scheduler.now() + period_;
  if (scheduler.now() >= end_) {
    finished_ = true;
    last_at_ = Clock::now();
    events_at_end_ = events;
    return;
  }
  scheduler.schedule_at(next < end_ ? next : end_, [this] { fire(); });
}

void report_sim_layers(Report& report, const CountingSink& sink, const ProbeStats& probes,
                       double run_s, std::uint64_t events, double deliveries) {
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  report.set("sim.events", count(events));
  report.set("sim.ns_per_event", ratio(run_s * 1e9, count(events)));
  report.set("sim.pending_mean", ratio(probes.pending_sum, count(probes.probes)));
  report.set("phy.active_mean", ratio(probes.active_sum, count(probes.probes)));
  report.set("phy.sense_ns", ratio(probes.sense_s * 1e9, count(probes.sense_calls)));
  report.set("phy.tx_frames", count(sink.tx_start));
  report.set("phy.rx_ok", count(sink.rx_ok));
  report.set("phy.rx_fail", count(sink.rx_fail));
  report.set("phy.rx_ok_ratio", ratio(count(sink.rx_ok), count(sink.rx_ok + sink.rx_fail)));
  report.set("mac.cca_busy", count(sink.cca_busy));
  report.set("mac.access_failures", count(sink.access_failure));
  // Every CCA either finds the channel busy or commits a transmission.
  report.set("mac.cca_busy_ratio",
             ratio(count(sink.cca_busy), count(sink.cca_busy + sink.tx_start)));
  report.set("mac.deliveries", deliveries);
  report.set("dcn.threshold_moves", count(sink.threshold_moves));
}

double measure_index_find_us(
    const std::vector<std::pair<std::string, std::string>>& stores, Report& report) {
  std::vector<std::unique_ptr<nomc::exp::StoreIndex>> indexes;
  std::string error, line;
  for (const auto& [path, hash] : stores) {
    auto index = std::make_unique<nomc::exp::StoreIndex>();
    if (!index->open(path, hash, error)) {
      report.check(false, "open index of " + path + ": " + error);
      return 0.0;
    }
    indexes.push_back(std::move(index));
  }
  long long lookups = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      for (const nomc::exp::StoreIndex::Entry& stored : indexes[i]->entries()) {
        const nomc::exp::StoreIndex::Entry* entry = indexes[i]->find(stores[i].second, stored.point);
        if (entry == nullptr || !indexes[i]->read_line(*entry, line, error)) {
          report.check(false, "indexed lookup in " + stores[i].first);
          return 0.0;
        }
        ++lookups;
      }
    }
  } while (seconds_since(start) < 0.05);
  return lookups > 0 ? seconds_since(start) * 1e6 / static_cast<double>(lookups) : 0.0;
}

double measure_ber_ns() {
  constexpr int kSteps = 2501;  // -10 .. 15 dB in 0.01 dB steps
  volatile double sink = 0.0;
  int calls = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (int i = 0; i < kSteps; ++i) {
      sink = sink + nomc::phy::oqpsk_ber(-10.0 + 0.01 * i);
    }
    calls += kSteps;
  } while (seconds_since(start) < 0.05);
  return seconds_since(start) * 1e9 / calls;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace perfbench
