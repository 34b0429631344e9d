#include "exp/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <set>
#include <string_view>
#include <type_traits>

#include "exp/result_store.hpp"
#include "net/scheme_names.hpp"
#include "net/topology.hpp"

namespace nomc::exp {
namespace {

/// The most channels (networks) a point may have; network indices run below it.
constexpr int kMaxChannels = 256;

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const auto pos = text.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(text.substr(start));
      return parts;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\t') ++i;
    if (i > start) parts.push_back(text.substr(start, i - start));
  }
  return parts;
}

// strtod also reads "nan" and "inf"; neither is a value any key can take,
// and a NaN would slip past every range check below.
bool parse_num(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && !text.empty() && std::isfinite(out);
}

bool parse_num(const std::string& text, int& out) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty()) return false;
  if (errno == ERANGE || value < INT_MIN || value > INT_MAX) return false;
  out = static_cast<int>(value);
  return true;
}

bool parse_num(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && errno != ERANGE;
}

// Parse `value` as `key`'s number and check it against `row`'s range.
template <typename T>
bool parse_value(const SpecKey& row, const std::string& key, const std::string& value, T& out,
                 std::string& message) {
  if (!parse_num(value, out)) {
    message = "value of '" + key + "' is not a number: '" + value + "'";
    return false;
  }
  if (static_cast<double>(out) < row.min || static_cast<double>(out) > row.max) {
    message = "value of '" + key + "' out of range (" + row.range + "): " + value;
    return false;
  }
  return true;
}

// A string key's value, already checked by its validator.
bool parse_value(const SpecKey&, const std::string&, const std::string& value, std::string& out,
                 std::string&) {
  out = value;
  return true;
}

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

bool check_scheme(const std::string& value, std::string& message) {
  net::Scheme ignored;
  if (net::parse_scheme(value, ignored)) return true;
  message = "unknown scheme '" + value + "' (" + net::kSchemeChoices + ")";
  return false;
}

bool check_topology(const std::string& value, std::string& message) {
  if (net::valid_topology(value)) return true;
  message = "unknown topology '" + value + "' (" + net::kTopologyChoices + ")";
  return false;
}

// The key table: the base keys in canonical order, then the optional keys,
// then the indexed keys. Every u64 converts to a double at or below 2^64.
constexpr SpecKey kKeys[] = {
    {"scheme", "scheme", &PointParams::scheme, 0, 0, "", check_scheme},
    {"topology", "topology", &PointParams::topology, 0, 0, "", check_topology},
    {"band-start", "band_start_mhz", &PointParams::band_start_mhz, 1.0, 1e6, ">= 1 MHz"},
    {"cfd", "cfd_mhz", &PointParams::cfd_mhz, 0.1, 1e3, "0.1 .. 1000 MHz"},
    {"channels", "channels", &PointParams::channels, 1, kMaxChannels, "1 .. 256"},
    {"links", "links", &PointParams::links, 1, 64, "1 .. 64"},
    {"power", "power_dbm", &PointParams::power_dbm, -200.0, 100.0, "dBm or 'random'", nullptr,
     "random"},
    {"cca", "cca_dbm", &PointParams::cca_dbm, -200.0, 0.0, "-200 .. 0 dBm"},
    {"psdu", "psdu_bytes", &PointParams::psdu_bytes, 1, 2047, "1 .. 2047 bytes"},
    {"warmup", "warmup_s", &PointParams::warmup_s, 0.0, 1e6, ">= 0 s"},
    {"measure", "measure_s", &PointParams::measure_s, 1e-3, 1e6, "> 0 s"},
    {"seed", "seed", &PointParams::seed, 0, 0x1p64, "unsigned 64-bit"},
    {"trials", "trials", &PointParams::trials, 1, 100000, ">= 1"},
    {"dcn-margin", "dcn-margin", &PointParams::dcn_margin_db, 0.0, 100.0, "0 .. 100 dB"},
    {"dcn-tu", "dcn-tu", &PointParams::dcn_tu_s, 1e-3, 1e4, "0.001 .. 10000 s"},
    {"region", "region", &PointParams::region_m, 1e-3, 1e5, "0.001 .. 100000 m"},
    {"room-spacing", "room-spacing", &PointParams::room_spacing_m, 0.0, 1e5, "0 .. 100000 m"},
    {"scheme", "scheme", &PointParams::network_scheme, 0, 0, "", check_scheme},
    {"power", "power", &PointParams::network_power_dbm, -200.0, 100.0, "-200 .. 100 dBm"},
    {"cca", "cca", &PointParams::network_cca_dbm, -200.0, 0.0, "-200 .. 0 dBm"},
};

// The row `key` names: a base or optional key by its name, an indexed key
// by the prefix before its '.'; nullptr for an unknown key.
const SpecKey* find_key(const std::string& key) {
  const std::size_t dot = key.find('.');
  const std::string_view name{key.data(), std::min(dot, key.size())};
  for (const SpecKey& row : kKeys) {
    if (row.indexed() == (dot != std::string::npos) && name == row.name) return &row;
  }
  return nullptr;
}

// The N of an indexed key "scheme.N" / "power.N" / "cca.N": decimal digits without a
// sign or a leading zero (one spelling per network keeps keys unique), below
// the channel limit.
bool network_index(const std::string& key, int& index, std::string& message) {
  const std::string digits = key.substr(key.find('.') + 1);
  bool ok = !digits.empty() && digits.size() <= 3 && (digits == "0" || digits[0] != '0');
  index = 0;
  for (const char c : digits) {
    ok = ok && c >= '0' && c <= '9';
    if (ok) index = index * 10 + (c - '0');
  }
  if (ok && index < kMaxChannels) return true;
  message = "bad network index in '" + key + "' (0 .. " + std::to_string(kMaxChannels - 1) +
            ", digits only)";
  return false;
}

// The network index of an indexed key, or -1 for any other key.
int indexed_network(const std::string& key) {
  const SpecKey* row = find_key(key);
  int index = -1;
  std::string ignored;
  if (row == nullptr || !row->indexed() || !network_index(key, index, ignored)) return -1;
  return index;
}

// The value a member holds: T for T, std::optional<T> and std::map<int, T>.
template <typename T> struct ValueOf { using type = T; };
template <typename T> struct ValueOf<std::optional<T>> { using type = T; };
template <typename T> struct ValueOf<std::map<int, T>> { using type = T; };

std::string value_text(const std::string& value) { return value; }
std::string value_text(int value) { return std::to_string(value); }
std::string value_text(std::uint64_t value) { return std::to_string(value); }
// Canonical double text reuses the store's pinned round-trip format so the
// spec text, the spec hash and the record never drift apart.
std::string value_text(double value) {
  std::string out;
  json_append_double(out, value);
  return out;
}

// Append the settings one row's member holds. A string key's record value
// is quoted; a number's canonical text already is a JSON number.
template <typename T>
void render(std::vector<KeySetting>& out, const SpecKey& row, const T& value) {
  KeySetting& setting =
      out.emplace_back(KeySetting{row.name, value_text(value), row.record_name, {}});
  if (row.numeric()) {
    setting.json = setting.text;
  } else {
    json_append_string(setting.json, setting.text);
  }
}

void render(std::vector<KeySetting>& out, const SpecKey& row, const std::optional<double>& value) {
  if (value.has_value()) {
    render(out, row, *value);
  } else if (row.unset != nullptr) {
    out.push_back(KeySetting{row.name, row.unset, row.record_name, "null"});
  }
}

template <typename T>
void render(std::vector<KeySetting>& out, const SpecKey& row, const std::map<int, T>& values) {
  for (const auto& [network, value] : values) {
    render(out, row, value);
    KeySetting& setting = out.back();
    setting.key += '.';
    setting.key += std::to_string(network);
    setting.record = setting.key;
  }
}

// The sweep lines of the canonical text and the hash: "sweep k1/k2" then
// `equals` then the steps, space-separated, each "v1/v2".
void append_axes(std::string& out, const std::vector<SweepAxis>& axes, const char* equals) {
  for (const SweepAxis& axis : axes) {
    out += "sweep ";
    for (std::size_t k = 0; k < axis.keys.size(); ++k) {
      if (k > 0) out += '/';
      out += axis.keys[k];
    }
    out += equals;
    for (std::size_t s = 0; s < axis.steps.size(); ++s) {
      if (s > 0) out += ' ';
      for (std::size_t k = 0; k < axis.steps[s].size(); ++k) {
        if (k > 0) out += '/';
        out += axis.steps[s][k];
      }
    }
    out += '\n';
  }
}

// Where a spec's grid takes one base key from: the sweep axis that steps it
// (and the key's position in that axis), else the base assignment's line
// (0 when the key keeps its default).
struct KeySource {
  const SweepAxis* axis = nullptr;
  std::size_t k = 0;
  int line = 0;
};

KeySource key_source(const CampaignSpec& spec, const std::map<std::string, int>& assigned,
                     const std::string& key) {
  for (const SweepAxis& axis : spec.axes) {
    for (std::size_t k = 0; k < axis.keys.size(); ++k) {
      if (axis.keys[k] == key) return {&axis, k, axis.line};
    }
  }
  const auto it = assigned.find(key);
  return {nullptr, 0, it == assigned.end() ? 0 : it->second};
}

// Every value `source` takes across the grid; `base` when it is not swept.
std::vector<std::string> grid_values(const KeySource& source, const std::string& base) {
  if (source.axis == nullptr) return {base};
  std::vector<std::string> values;
  for (const std::vector<std::string>& step : source.axis->steps) values.push_back(step[source.k]);
  return values;
}

int channels_of(const std::string& text) {
  int channels = 0;
  (void)parse_num(text, channels);  // validated when its line was parsed
  return channels;
}

// A rig topology places exactly net::kFig5Channels channels. Topology and
// channels stepped by one lockstep axis are checked step by step; otherwise
// every combination of their grid values is.
bool check_rig_channels(const CampaignSpec& spec, const KeySource& topology,
                        const KeySource& channels, SpecError& error) {
  const auto refuse = [&](int line, const std::string& name, int count) {
    error.line = line;
    error.message = "topology '" + name + "' places " + std::to_string(net::kFig5Channels) +
                    " channels, but a grid point has channels = " + std::to_string(count);
    return false;
  };
  if (topology.axis != nullptr && topology.axis == channels.axis) {
    for (const std::vector<std::string>& step : topology.axis->steps) {
      const int count = channels_of(step[channels.k]);
      if (net::is_rig_topology(step[topology.k]) && count != net::kFig5Channels) {
        return refuse(topology.line, step[topology.k], count);
      }
    }
    return true;
  }
  for (const std::string& name : grid_values(topology, spec.base.topology)) {
    if (!net::is_rig_topology(name)) continue;
    for (const std::string& text : grid_values(channels, std::to_string(spec.base.channels))) {
      if (channels_of(text) != net::kFig5Channels) {
        return refuse(std::max(topology.line, channels.line), name, channels_of(text));
      }
    }
  }
  return true;
}

}  // namespace

std::span<const SpecKey> spec_keys() { return kKeys; }

std::vector<KeySetting> key_settings(const PointParams& params) {
  std::vector<KeySetting> out;
  out.reserve(std::size(kKeys));
  for (const SpecKey& row : kKeys) {
    std::visit([&](auto member) { render(out, row, params.*member); }, row.slot);
  }
  return out;
}

std::string SpecError::str() const {
  if (line <= 0) return message;
  return "line " + std::to_string(line) + ": " + message;
}

bool apply_param(PointParams& params, const std::string& key, const std::string& value,
                 std::string& message) {
  const SpecKey* row = find_key(key);
  if (row == nullptr) {
    message = "unknown key '" + key + "'";
    return false;
  }
  int network = -1;
  if (row->indexed() && !network_index(key, network, message)) return false;
  if (row->check != nullptr && !row->check(value, message)) return false;
  if (row->unset != nullptr && value == row->unset) {
    (params.*std::get<std::optional<double> PointParams::*>(row->slot)).reset();
    return true;
  }
  return std::visit(
      [&](auto member) {
        auto& field = params.*member;
        using Field = std::remove_reference_t<decltype(field)>;
        typename ValueOf<Field>::type parsed{};  // the member changes only on success
        if (!parse_value(*row, key, value, parsed, message)) return false;
        if constexpr (requires { typename Field::mapped_type; }) {
          field[network] = std::move(parsed);
        } else {
          field = std::move(parsed);
        }
        return true;
      },
      row->slot);
}

bool parse_campaign(const std::string& text, CampaignSpec& out, SpecError& error) {
  out = CampaignSpec{};
  std::map<std::string, int> assigned_keys;  // key -> line
  std::set<std::string> swept_keys;
  std::vector<std::pair<int, std::string>> indexed_keys;  // (line, key): scheme.N, power.N, cca.N

  const std::vector<std::string> lines = split(text, '\n');
  for (std::size_t li = 0; li < lines.size(); ++li) {
    error.line = static_cast<int>(li) + 1;
    std::string line = lines[li];
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      error.message = "expected 'key = value' or 'sweep key = values'";
      return false;
    }
    std::string lhs = trim(line.substr(0, eq));
    const std::string rhs = trim(line.substr(eq + 1));

    const bool is_sweep = lhs.rfind("sweep", 0) == 0 &&
                          (lhs.size() == 5 || lhs[5] == ' ' || lhs[5] == '\t');
    if (is_sweep) {
      lhs = trim(lhs.substr(5));
      if (lhs.empty()) {
        error.message = "sweep needs a key: 'sweep key = values'";
        return false;
      }
      SweepAxis axis;
      axis.line = error.line;
      axis.keys = split(lhs, '/');
      for (const std::string& key : axis.keys) {
        if (trim(key) != key || key.empty()) {
          error.message = "malformed sweep key list '" + lhs + "'";
          return false;
        }
        if (!swept_keys.insert(key).second) {
          error.message = "key '" + key + "' swept by more than one sweep line";
          return false;
        }
        if (indexed_network(key) >= 0) indexed_keys.emplace_back(error.line, key);
      }
      const std::vector<std::string> steps = split_ws(rhs);
      if (steps.empty()) {
        error.message = "sweep of '" + lhs + "' lists no values";
        return false;
      }
      for (const std::string& step : steps) {
        std::vector<std::string> values = split(step, '/');
        if (values.size() != axis.keys.size()) {
          error.message = "sweep step '" + step + "' has " +
                          std::to_string(values.size()) + " value(s) for " +
                          std::to_string(axis.keys.size()) + " key(s)";
          return false;
        }
        // Validate each value now so expansion can never fail later.
        PointParams scratch = out.base;
        for (std::size_t k = 0; k < axis.keys.size(); ++k) {
          if (!apply_param(scratch, axis.keys[k], values[k], error.message)) return false;
        }
        axis.steps.push_back(std::move(values));
      }
      out.axes.push_back(std::move(axis));
      // Overflow-checked grid budget, attributed to the axis that blew it:
      // the product so far is always <= kMaxGridPoints, so the division
      // below cannot lose information.
      std::size_t total = 1;
      for (const SweepAxis& a : out.axes) {
        if (total > kMaxGridPoints / a.steps.size()) {
          error.message = "sweep grid exceeds " + std::to_string(kMaxGridPoints) +
                          " points (this axis multiplies the grid by " +
                          std::to_string(a.steps.size()) + ")";
          return false;
        }
        total *= a.steps.size();
      }
      continue;
    }

    if (lhs.empty()) {
      error.message = "expected 'key = value'";
      return false;
    }
    if (split_ws(lhs).size() != 1) {
      error.message = "malformed key '" + lhs + "'";
      return false;
    }
    if (lhs == "name") {
      if (!valid_name(rhs)) {
        error.message = "campaign name must match [A-Za-z0-9_.-]+, got '" + rhs + "'";
        return false;
      }
      out.name = rhs;
      continue;
    }
    if (!assigned_keys.emplace(lhs, error.line).second) {
      error.message = "duplicate assignment of '" + lhs + "'";
      return false;
    }
    if (!apply_param(out.base, lhs, rhs, error.message)) return false;
    if (indexed_network(lhs) >= 0) indexed_keys.emplace_back(error.line, lhs);
  }

  const KeySource channels = key_source(out, assigned_keys, "channels");
  if (!check_rig_channels(out, key_source(out, assigned_keys, "topology"), channels, error)) {
    return false;
  }
  // Every grid point must have the networks its indexed keys name: check
  // each against the fewest channels any point has.
  int fewest = INT_MAX;
  for (const std::string& value : grid_values(channels, std::to_string(out.base.channels))) {
    fewest = std::min(fewest, channels_of(value));
  }
  for (const auto& [line, key] : indexed_keys) {
    const int network = indexed_network(key);
    if (network >= fewest) {
      error.line = line;
      error.message = "'" + key + "' names network " + std::to_string(network) +
                      ", but a grid point has only " + std::to_string(fewest) + " channel(s)";
      return false;
    }
  }

  error = SpecError{};
  return true;
}

bool load_campaign(const std::string& path, CampaignSpec& out, SpecError& error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    error = SpecError{0, "cannot open spec file: " + path};
    return false;
  }
  std::string text;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    error = SpecError{0, "error reading spec file: " + path};
    return false;
  }
  return parse_campaign(text, out, error);
}

std::string format_campaign(const CampaignSpec& spec) {
  std::string out = "name = " + spec.name + "\n";
  for (const KeySetting& setting : key_settings(spec.base)) {
    out += setting.key;
    out += " = ";
    out += setting.text;
    out += '\n';
  }
  append_axes(out, spec.axes, " = ");
  return out;
}

std::string assignment_label(const std::vector<std::pair<std::string, std::string>>& assignment) {
  std::string label;
  for (const auto& [key, value] : assignment) {
    if (!label.empty()) label += ' ';
    label += key + "=" + value;
  }
  return label.empty() ? "(single point)" : label;
}

std::vector<SweepPoint> expand_grid(const CampaignSpec& spec) {
  std::size_t total = 1;
  for (const SweepAxis& axis : spec.axes) total *= axis.steps.size();

  std::vector<SweepPoint> points;
  points.reserve(total);
  for (std::size_t cell = 0; cell < total; ++cell) {
    SweepPoint point;
    point.index = static_cast<int>(cell);
    point.params = spec.base;

    // Decompose `cell` into per-axis step indices, first axis outermost.
    std::size_t remainder = cell;
    std::size_t stride = total;
    for (const SweepAxis& axis : spec.axes) {
      stride /= axis.steps.size();
      const std::size_t step = remainder / stride;
      remainder %= stride;
      for (std::size_t k = 0; k < axis.keys.size(); ++k) {
        std::string message;
        const bool ok =
            apply_param(point.params, axis.keys[k], axis.steps[step][k], message);
        (void)ok;  // validated at parse time
        point.assignment.emplace_back(axis.keys[k], axis.steps[step][k]);
      }
    }
    points.push_back(std::move(point));
  }
  return points;
}

std::string spec_hash(const CampaignSpec& spec) {
  // Canonical serialization: stable across processes and sessions because it
  // uses explicit formatting, never pointers or iteration over hashed maps.
  std::string canon = "nomc-campaign-v1\n";
  canon += "name=" + spec.name + "\n";
  const char* separator = "";
  for (const KeySetting& setting : key_settings(spec.base)) {
    canon += separator;
    canon += setting.key;
    canon += '=';
    canon += setting.text;
    separator = ";";
  }
  canon += '\n';
  append_axes(canon, spec.axes, "=");

  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit
  for (const unsigned char c : canon) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016" PRIx64, hash);
  return out;
}

}  // namespace nomc::exp
