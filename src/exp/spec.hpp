// Declarative experiment campaigns: a plain-text spec describing one
// operating point plus swept parameters, expanded into a deterministic grid.
//
// Spec grammar (one statement per line; '#' starts a comment):
//
//   name = fig01_cfd            # campaign identity ([A-Za-z0-9_.-]+)
//   key = value                 # override one base parameter
//   sweep key = v1 v2 v3        # sweep one parameter over listed values
//   sweep k1/k2 = a1/b1 a2/b2   # lockstep sweep: k1,k2 step together
//
// Keys mirror the nomc-sim options: scheme, topology, band-start, cfd,
// channels, links, power, cca, psdu, warmup, measure, seed, trials.
// `topology` is a Case (dense | clustered | random) or the Fig. 5 rig
// (fig5 | fig5-cochannel), which takes exactly `channels = 5`.
// `power` accepts a dBm number or the word "random" (per-node uniform in
// [-22, 0] dBm, the paper's Case deployments). Seven more keys are optional
// and have no nomc-sim option:
//
//   scheme.N = dcn              # network N's scheme (Cases: N = 0 is the lowest
//                               # channel; rig: N = 0 is the victim)
//   power.N = -15               # TX power (dBm) of every link of network N
//   cca.N = -55                 # fixed CCA threshold (dBm) of network N's senders
//   dcn-margin = 4              # DCN safety margin below min co-channel RSSI (dB)
//   dcn-tu = 6                  # DCN updating window T_U (s)
//   region = 3                  # Case I region / Case II room edge (m)
//   room-spacing = 1.8          # Case II distance between room centres (m)
//
// An indexed key composes with sweeps (`sweep power.3 = -33 0`); every grid
// point must have more than N channels. A rig topology with another channel
// count is refused too, per lockstep step or over every combination. An unset optional key appears
// nowhere: not in the canonical text, the spec hash or the record.
// Multiple `sweep` lines form a cartesian product; the first-declared sweep
// varies slowest. All values are validated at parse time, so every error
// carries its line number.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mac/cca.hpp"

namespace nomc::exp {

/// One operating point: everything needed to deploy and run a Scenario.
/// Defaults match nomc-sim's defaults.
struct PointParams {
  std::string scheme = "dcn";      ///< fixed | dcn | carrier-sense
  std::string topology = "dense";  ///< dense | clustered | random
  double band_start_mhz = 2458.0;
  double cfd_mhz = 3.0;
  int channels = 6;
  int links = 2;
  std::optional<double> power_dbm;  ///< nullopt = random [-22, 0] dBm per node
  double cca_dbm = mac::kZigbeeDefaultCcaThreshold.value;  ///< fixed-scheme CCA threshold
  int psdu_bytes = 100;
  double warmup_s = 2.0;
  double measure_s = 8.0;
  std::uint64_t seed = 1;
  int trials = 3;
  // The optional keys: unset means the scenario's own default.
  std::map<int, std::string> network_scheme;  ///< scheme.N, by network index
  std::map<int, double> network_power_dbm;    ///< power.N, by network index
  std::map<int, double> network_cca_dbm;      ///< cca.N, by network index
  std::optional<double> dcn_margin_db;        ///< dcn-margin → DcnConfig::safety_margin
  std::optional<double> dcn_tu_s;             ///< dcn-tu → DcnConfig::t_update
  std::optional<double> region_m;             ///< region → RandomCaseConfig::region_m
  std::optional<double> room_spacing_m;       ///< room-spacing → RandomCaseConfig::room_spacing_m
};

/// The optional keys `params` sets, as (key, canonical value text) in a fixed
/// order: dcn-margin, dcn-tu, region, room-spacing, then scheme.N, power.N
/// and cca.N by ascending N. Empty when none is set. The canonical text, the
/// spec hash and the record all serialize through it.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> optional_settings(
    const PointParams& params);

/// One `sweep` line. `keys` step in lockstep: step i assigns
/// keys[k] = steps[i][k] for every k.
struct SweepAxis {
  std::vector<std::string> keys;
  std::vector<std::vector<std::string>> steps;
  int line = 0;  ///< 1-based spec line, for diagnostics
};

struct CampaignSpec {
  std::string name = "campaign";
  PointParams base;
  std::vector<SweepAxis> axes;  ///< cartesian product; axes[0] varies slowest
};

struct SpecError {
  int line = 0;  ///< 1-based; 0 = not line-specific (I/O errors etc.)
  std::string message;
  /// "line N: message", or just the message when line is 0.
  [[nodiscard]] std::string str() const;
};

/// Expanded grids larger than this are rejected at parse time (the product
/// of the axis sizes is overflow-checked, so absurd sweeps fail with a line
/// number instead of exhausting memory in expand_grid).
inline constexpr std::size_t kMaxGridPoints = 1u << 20;

/// Parse a spec from text. On failure returns false and fills `error` with a
/// line-numbered message; `out` is left in an unspecified state.
bool parse_campaign(const std::string& text, CampaignSpec& out, SpecError& error);

/// Canonical spec text for `spec`: every base parameter explicit, axes in
/// declaration order. parse_campaign(format_campaign(s)) reproduces s —
/// same grid, same spec_hash — and formatting is idempotent
/// (tests/exp/spec_test.cpp round-trips it).
[[nodiscard]] std::string format_campaign(const CampaignSpec& spec);

/// parse_campaign() over the contents of `path`.
bool load_campaign(const std::string& path, CampaignSpec& out, SpecError& error);

/// Apply one `key = value` assignment. Returns false and fills `message` on
/// an unknown key, malformed value, or out-of-range value. Shared by the
/// parser (validation) and grid expansion (application).
bool apply_param(PointParams& params, const std::string& key, const std::string& value,
                 std::string& message);

/// One cell of the expanded grid.
struct SweepPoint {
  int index = 0;  ///< stable position in the grid (the resume/checkpoint key)
  PointParams params;
  /// The swept assignments of this cell, in axis declaration order.
  std::vector<std::pair<std::string, std::string>> assignment;
};

/// "key=value key=value", or "(single point)" for a grid without sweeps.
[[nodiscard]] std::string assignment_label(
    const std::vector<std::pair<std::string, std::string>>& assignment);

/// Expand the full grid (row-major; first axis outermost). A spec without
/// sweep lines yields exactly one point. Never fails: every value was
/// validated when the spec was parsed.
[[nodiscard]] std::vector<SweepPoint> expand_grid(const CampaignSpec& spec);

/// 16-hex-digit FNV-1a hash of the canonical spec serialization. Identifies
/// the campaign inside the result store; resume refuses a mismatch.
[[nodiscard]] std::string spec_hash(const CampaignSpec& spec);

}  // namespace nomc::exp
