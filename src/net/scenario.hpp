// Scenario: builds and runs a complete multi-network deployment.
//
// This is the top-level public API most examples and all figure benches use:
// declare networks and links (or feed topology-generated NetworkSpecs),
// choose per-network channel-access scheme (fixed ZigBee CCA or DCN), run
// with a warm-up, and read per-link / per-network / overall results.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dcn/cca_adjustor.hpp"
#include "mac/cca.hpp"
#include "mac/csma.hpp"
#include "net/spec.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "sim/scheduler.hpp"
#include "stats/counters.hpp"
#include "stats/throughput.hpp"

namespace nomc::net {

/// Channel-access scheme of a network's senders.
enum class Scheme {
  kFixedCca,      ///< default ZigBee: constant energy threshold
  kDcn,           ///< the paper's contribution: CCA-Adjustor per sender
  kCarrierSense,  ///< §VII-C future work: modulation-detect CCA (ignores
                  ///< inter-channel energy by construction)
};

struct ScenarioConfig {
  phy::MediumConfig medium{};
  mac::CsmaParams csma{};
  phy::Dbm fixed_cca_threshold = mac::kZigbeeDefaultCcaThreshold;
  dcn::DcnConfig dcn{};
  /// MAC PSDU (header + payload + FCS) of data frames. 100 bytes ≈ the
  /// saturation frame size that matches the testbed's ~250 packets/s per
  /// channel ceiling.
  int psdu_bytes = 100;
  /// Request MAC acknowledgements on the saturated data traffic. The paper's
  /// experiments run without ACKs (the default); tests enable this to drive
  /// cancel-heavy ACK-timer workloads through the full stack.
  bool ack_request = false;
  std::uint64_t seed = 1;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config = {});
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Declare a network on `channel` whose senders use `scheme`.
  /// Returns the network index.
  int add_network(phy::Mhz channel, Scheme scheme);

  /// Add a sender→receiver link to network `network`. Returns the link index
  /// within that network.
  int add_link(int network, const LinkSpec& spec);

  /// Instantiate `specs` wholesale under one scheme.
  void add_networks(std::span<const NetworkSpec> specs, Scheme scheme);

  // -- Pre-run customization hooks -------------------------------------
  [[nodiscard]] mac::CsmaMac& sender_mac(int network, int link);
  [[nodiscard]] mac::CsmaMac& receiver_mac(int network, int link);
  [[nodiscard]] phy::Radio& sender_radio(int network, int link);
  [[nodiscard]] phy::Radio& receiver_radio(int network, int link);
  /// The per-sender fixed threshold (also exists for DCN links, unused then).
  [[nodiscard]] mac::FixedCcaThreshold& fixed_cca(int network, int link);
  /// The per-sender adjustor; nullptr on fixed-CCA networks.
  [[nodiscard]] dcn::CcaAdjustor* adjustor(int network, int link);
  /// Disable saturated traffic for one link (drive it manually instead).
  void set_traffic_enabled(int network, int link, bool enabled);

  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] phy::Medium& medium() { return *medium_; }
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] int network_count() const { return static_cast<int>(networks_.size()); }
  [[nodiscard]] int link_count(int network) const;
  [[nodiscard]] phy::Mhz network_channel(int network) const;

  /// Start saturated sources and DCN adjustors, run for warmup + measure,
  /// and collect statistics over the measurement window only.
  void run(sim::SimTime warmup, sim::SimTime measure);

  /// The setup half of run(): arm traffic sources, adjustors, and the
  /// window-baseline snapshot without advancing time. A caller that drives
  /// the scheduler itself (e.g. in timed slices) calls this, then advances
  /// scheduler() to warmup + measure.
  void start_run(sim::SimTime warmup, sim::SimTime measure);

  // -- Results (valid after run) ----------------------------------------
  struct LinkResult {
    double throughput_pps = 0.0;           ///< deliveries/s in the window
    stats::PacketCounters sender;          ///< window-scoped sender counters
    stats::PacketCounters receiver;        ///< window-scoped receiver counters
    double prr = 0.0;                      ///< received / sent in the window
  };
  struct NetworkResult {
    double throughput_pps = 0.0;
    std::vector<LinkResult> links;
  };

  [[nodiscard]] NetworkResult network_result(int network) const;
  [[nodiscard]] std::vector<double> network_throughputs() const;
  [[nodiscard]] double overall_throughput() const;

 private:
  struct LinkRuntime;
  struct NetworkRuntime;

  [[nodiscard]] LinkRuntime& link_at(int network, int link);
  [[nodiscard]] const LinkRuntime& link_at(int network, int link) const;
  [[nodiscard]] std::uint64_t next_stream() { return stream_counter_++; }

  ScenarioConfig config_;
  sim::Scheduler scheduler_;
  std::unique_ptr<phy::Medium> medium_;
  std::vector<std::unique_ptr<NetworkRuntime>> networks_;
  std::uint64_t stream_counter_ = 0;
  bool ran_ = false;
};

}  // namespace nomc::net
