#include "exp/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

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

template <typename T>
bool set_number(const std::string& key, const std::string& value, T& slot, T min, T max,
                const char* range_hint, std::string& message) {
  T parsed{};
  if (!parse_num(value, parsed)) {
    message = "value of '" + key + "' is not a number: '" + value + "'";
    return false;
  }
  if (parsed < min || parsed > max) {
    message = "value of '" + key + "' out of range (" + range_hint + "): " + value;
    return false;
  }
  slot = parsed;
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

// Canonical double text (spec hash + sweep values) reuses the store's
// pinned round-trip format so the two never drift apart.
void append_double(std::string& out, double value) { json_append_double(out, value); }

std::string double_text(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

bool check_scheme(const std::string& value, std::string& message) {
  net::Scheme ignored;
  if (net::parse_scheme(value, ignored)) return true;
  message = "unknown scheme '" + value + "' (" + net::kSchemeChoices + ")";
  return false;
}

// The N of an indexed key "scheme.N" / "power.N" / "cca.N": decimal digits without a
// sign or a leading zero (one spelling per network keeps keys unique), below
// the channel limit.
bool network_index(const std::string& key, std::size_t dot, int& index, std::string& message) {
  const std::string digits = key.substr(dot + 1);
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

// The network index of a scheme.N / power.N / cca.N key, or -1 for any other
// key.
int indexed_network(const std::string& key) {
  const auto dot = key.find('.');
  if (dot == std::string::npos) return -1;
  const std::string base = key.substr(0, dot);
  int index = -1;
  std::string ignored;
  if ((base != "scheme" && base != "power" && base != "cca") ||
      !network_index(key, dot, index, ignored)) {
    return -1;
  }
  return index;
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

std::vector<std::pair<std::string, std::string>> optional_settings(const PointParams& params) {
  std::vector<std::pair<std::string, std::string>> out;
  if (params.dcn_margin_db) out.emplace_back("dcn-margin", double_text(*params.dcn_margin_db));
  if (params.dcn_tu_s) out.emplace_back("dcn-tu", double_text(*params.dcn_tu_s));
  if (params.region_m) out.emplace_back("region", double_text(*params.region_m));
  if (params.room_spacing_m) {
    out.emplace_back("room-spacing", double_text(*params.room_spacing_m));
  }
  for (const auto& [network, scheme] : params.network_scheme) {
    out.emplace_back("scheme." + std::to_string(network), scheme);
  }
  for (const auto& [network, power] : params.network_power_dbm) {
    out.emplace_back("power." + std::to_string(network), double_text(power));
  }
  for (const auto& [network, cca] : params.network_cca_dbm) {
    out.emplace_back("cca." + std::to_string(network), double_text(cca));
  }
  return out;
}

std::string SpecError::str() const {
  if (line <= 0) return message;
  return "line " + std::to_string(line) + ": " + message;
}

bool apply_param(PointParams& params, const std::string& key, const std::string& value,
                 std::string& message) {
  if (key == "scheme") {
    if (!check_scheme(value, message)) return false;
    params.scheme = value;
    return true;
  }
  if (key == "topology") {
    if (!net::valid_topology(value)) {
      message = "unknown topology '" + value + "' (" + net::kTopologyChoices + ")";
      return false;
    }
    params.topology = value;
    return true;
  }
  if (key == "band-start") {
    return set_number(key, value, params.band_start_mhz, 1.0, 1e6, ">= 1 MHz", message);
  }
  if (key == "cfd") {
    return set_number(key, value, params.cfd_mhz, 0.1, 1e3, "0.1 .. 1000 MHz", message);
  }
  if (key == "channels") {
    return set_number(key, value, params.channels, 1, kMaxChannels, "1 .. 256", message);
  }
  if (key == "links") {
    return set_number(key, value, params.links, 1, 64, "1 .. 64", message);
  }
  if (key == "power") {
    if (value == "random") {
      params.power_dbm.reset();
      return true;
    }
    double power = 0.0;
    if (!set_number(key, value, power, -200.0, 100.0, "dBm or 'random'", message)) {
      return false;
    }
    params.power_dbm = power;
    return true;
  }
  if (key == "cca") {
    return set_number(key, value, params.cca_dbm, -200.0, 0.0, "-200 .. 0 dBm", message);
  }
  if (key == "psdu") {
    return set_number(key, value, params.psdu_bytes, 1, 2047, "1 .. 2047 bytes", message);
  }
  if (key == "warmup") {
    return set_number(key, value, params.warmup_s, 0.0, 1e6, ">= 0 s", message);
  }
  if (key == "measure") {
    return set_number(key, value, params.measure_s, 1e-3, 1e6, "> 0 s", message);
  }
  if (key == "seed") {
    return set_number(key, value, params.seed, std::uint64_t{0},
                      ~std::uint64_t{0}, "unsigned 64-bit", message);
  }
  if (key == "trials") {
    return set_number(key, value, params.trials, 1, 100000, ">= 1", message);
  }
  // The optional keys. std::optional<double> slots parse through a scratch
  // double so a bad value leaves them unset.
  const auto set_optional = [&](std::optional<double>& slot, double min, double max,
                                const char* range_hint) {
    double parsed = 0.0;
    if (!set_number(key, value, parsed, min, max, range_hint, message)) return false;
    slot = parsed;
    return true;
  };
  if (key == "dcn-margin") return set_optional(params.dcn_margin_db, 0.0, 100.0, "0 .. 100 dB");
  if (key == "dcn-tu") return set_optional(params.dcn_tu_s, 1e-3, 1e4, "0.001 .. 10000 s");
  if (key == "region") return set_optional(params.region_m, 1e-3, 1e5, "0.001 .. 100000 m");
  if (key == "room-spacing") {
    return set_optional(params.room_spacing_m, 0.0, 1e5, "0 .. 100000 m");
  }
  if (const auto dot = key.find('.'); dot != std::string::npos) {
    const std::string base = key.substr(0, dot);
    int network = 0;
    if (base == "scheme") {
      if (!network_index(key, dot, network, message) || !check_scheme(value, message)) {
        return false;
      }
      params.network_scheme[network] = value;
      return true;
    }
    if (base == "power") {
      if (!network_index(key, dot, network, message)) return false;
      double power = 0.0;
      if (!set_number(key, value, power, -200.0, 100.0, "-200 .. 100 dBm", message)) return false;
      params.network_power_dbm[network] = power;
      return true;
    }
    if (base == "cca") {
      if (!network_index(key, dot, network, message)) return false;
      double cca = 0.0;
      if (!set_number(key, value, cca, -200.0, 0.0, "-200 .. 0 dBm", message)) return false;
      params.network_cca_dbm[network] = cca;
      return true;
    }
  }
  message = "unknown key '" + key + "'";
  return false;
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
  const PointParams& p = spec.base;
  std::string out = "name = " + spec.name + "\n";
  out += "scheme = " + p.scheme + "\n";
  out += "topology = " + p.topology + "\n";
  out += "band-start = ";
  append_double(out, p.band_start_mhz);
  out += "\ncfd = ";
  append_double(out, p.cfd_mhz);
  out += "\nchannels = " + std::to_string(p.channels);
  out += "\nlinks = " + std::to_string(p.links);
  out += "\npower = ";
  if (p.power_dbm.has_value()) {
    append_double(out, *p.power_dbm);
  } else {
    out += "random";
  }
  out += "\ncca = ";
  append_double(out, p.cca_dbm);
  out += "\npsdu = " + std::to_string(p.psdu_bytes);
  out += "\nwarmup = ";
  append_double(out, p.warmup_s);
  out += "\nmeasure = ";
  append_double(out, p.measure_s);
  char seed_buffer[32];
  std::snprintf(seed_buffer, sizeof seed_buffer, "%" PRIu64, p.seed);
  out += "\nseed = ";
  out += seed_buffer;
  out += "\ntrials = " + std::to_string(p.trials) + "\n";
  for (const auto& [key, value] : optional_settings(p)) out += key + " = " + value + "\n";
  for (const SweepAxis& axis : spec.axes) {
    out += "sweep ";
    for (std::size_t k = 0; k < axis.keys.size(); ++k) {
      if (k > 0) out += '/';
      out += axis.keys[k];
    }
    out += " =";
    for (const std::vector<std::string>& step : axis.steps) {
      out += ' ';
      for (std::size_t k = 0; k < step.size(); ++k) {
        if (k > 0) out += '/';
        out += step[k];
      }
    }
    out += '\n';
  }
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
  const PointParams& p = spec.base;
  canon += "scheme=" + p.scheme + ";topology=" + p.topology + ";band-start=";
  append_double(canon, p.band_start_mhz);
  canon += ";cfd=";
  append_double(canon, p.cfd_mhz);
  canon += ";channels=" + std::to_string(p.channels) + ";links=" + std::to_string(p.links);
  canon += ";power=";
  if (p.power_dbm.has_value()) {
    append_double(canon, *p.power_dbm);
  } else {
    canon += "random";
  }
  canon += ";cca=";
  append_double(canon, p.cca_dbm);
  canon += ";psdu=" + std::to_string(p.psdu_bytes) + ";warmup=";
  append_double(canon, p.warmup_s);
  canon += ";measure=";
  append_double(canon, p.measure_s);
  char seed_buffer[32];
  std::snprintf(seed_buffer, sizeof seed_buffer, "%" PRIu64, p.seed);
  canon += ";seed=";
  canon += seed_buffer;
  canon += ";trials=" + std::to_string(p.trials);
  for (const auto& [key, value] : optional_settings(p)) canon += ";" + key + "=" + value;
  canon += '\n';
  for (const SweepAxis& axis : spec.axes) {
    canon += "sweep ";
    for (std::size_t k = 0; k < axis.keys.size(); ++k) {
      if (k > 0) canon += '/';
      canon += axis.keys[k];
    }
    canon += '=';
    for (std::size_t s = 0; s < axis.steps.size(); ++s) {
      if (s > 0) canon += ' ';
      for (std::size_t k = 0; k < axis.steps[s].size(); ++k) {
        if (k > 0) canon += '/';
        canon += axis.steps[s][k];
      }
    }
    canon += '\n';
  }

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
