#include "exp/spec.hpp"

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

namespace nomc::exp {
namespace {

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

}  // namespace

std::string SpecError::str() const {
  if (line <= 0) return message;
  return "line " + std::to_string(line) + ": " + message;
}

bool apply_param(PointParams& params, const std::string& key, const std::string& value,
                 std::string& message) {
  if (key == "scheme") {
    net::Scheme ignored;
    if (!net::parse_scheme(value, ignored)) {
      message = "unknown scheme '" + value + "' (" + net::kSchemeChoices + ")";
      return false;
    }
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
    return set_number(key, value, params.channels, 1, 256, "1 .. 256", message);
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
  message = "unknown key '" + key + "'";
  return false;
}

bool parse_campaign(const std::string& text, CampaignSpec& out, SpecError& error) {
  out = CampaignSpec{};
  std::set<std::string> assigned_keys;
  std::set<std::string> swept_keys;

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
    if (!assigned_keys.insert(lhs).second) {
      error.message = "duplicate assignment of '" + lhs + "'";
      return false;
    }
    if (!apply_param(out.base, lhs, rhs, error.message)) return false;
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
  canon += ";trials=" + std::to_string(p.trials) + "\n";
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
