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
// The keys are the rows of spec_keys() (the table in src/exp/spec.cpp;
// docs/campaigns.md describes each): thirteen base keys that mirror the
// nomc-sim options, then the optional keys and the indexed keys scheme.N,
// power.N and cca.N (network N). An unset optional key appears nowhere: not
// in the canonical text, the spec hash or the record. An indexed key composes
// with sweeps (`sweep power.3 = -33 0`); every grid point must have more than
// N channels. A rig topology (fig5 | fig5-cochannel) takes exactly
// `channels = 5`, per lockstep step or over every combination.
// Multiple `sweep` lines form a cartesian product; the first-declared sweep
// varies slowest. All values are validated at parse time, so every error
// carries its line number.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
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

/// One row of the key table (src/exp/spec.cpp): a key's names, the
/// PointParams member it sets and the values it takes. apply_param parses
/// through the table and key_settings renders through it.
struct SpecKey {
  /// A map member makes an indexed key: power.3 sets network_power_dbm[3].
  using Slot = std::variant<std::string PointParams::*, int PointParams::*,
                            std::uint64_t PointParams::*, double PointParams::*,
                            std::optional<double> PointParams::*,
                            std::map<int, std::string> PointParams::*,
                            std::map<int, double> PointParams::*>;
  const char* name;         ///< spec key; an indexed key's prefix ("power" of power.N)
  const char* record_name;  ///< name in a record's params object
  Slot slot;
  double min = 0.0, max = 0.0;  ///< a numeric key's inclusive range,
  const char* range = "";       ///< as its out-of-range message names it
  /// A string key's validator: false, with a message, for a value it refuses.
  bool (*check)(const std::string& value, std::string& message) = nullptr;
  /// The text that unsets an optional<double> base key and that it renders
  /// as while unset (power's "random"); nullptr lets the key vanish instead.
  const char* unset = nullptr;

  [[nodiscard]] bool indexed() const { return slot.index() >= 5; }  // a map member
  [[nodiscard]] bool numeric() const { return check == nullptr; }
  /// Spec-only (no nomc-sim option), and written only while set.
  [[nodiscard]] bool optional() const {
    return indexed() ||
           (std::holds_alternative<std::optional<double> PointParams::*>(slot) && !unset);
  }
};

/// The key table, in canonical order: the base keys, then the optional
/// keys, then the indexed keys.
[[nodiscard]] std::span<const SpecKey> spec_keys();

/// One key a PointParams sets, rendered every way it is written out.
struct KeySetting {
  std::string key;     ///< spec key ("cfd", "power.3")
  std::string text;    ///< canonical spec value ("3", "random", "dcn")
  std::string record;  ///< name in the record's params object (cfd_mhz for cfd)
  std::string json;    ///< value in the record ("3", "null", "\"dcn\"")
};

/// Every key `params` sets, in table order (an indexed key by ascending
/// N): each base key, then each optional key that is set. The canonical
/// text, the spec hash and the record's params object all walk it.
[[nodiscard]] std::vector<KeySetting> key_settings(const PointParams& params);

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
