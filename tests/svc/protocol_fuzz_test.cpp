// Fixed-seed mutation fuzz of the wire grammar a server session runs on
// untrusted bytes: LineSplitter framing, then parse_request on every line.
// Inputs are valid requests put through bit flips, truncations, splices,
// hostile-byte insertions, deep nesting and oversize lines, fed in random
// chunk sizes. Every line must come back as a parsed request or an error —
// never a crash, hang or sanitizer report — and framing must recover on the
// next newline.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "svc/protocol.hpp"

namespace nomc::svc {
namespace {

// Small cap so oversize lines are cheap to build; framing logic is the same
// at kMaxLine.
constexpr std::size_t kFuzzMaxLine = 512;

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> requests = {
      R"({"op":"ping"})",
      R"({"op":"submit","spec":"name = fz\nchannels = 2\nsweep links = 1 2\n"})",
      R"({"op":"status"})",
      R"({"op":"status","spec_hash":"0123456789abcdef"})",
      R"({"op":"query","spec_hash":"0123456789abcdef","point":3})",
      R"({"op":"export","spec_hash":"0123456789abcdef"})",
      R"({"op":"shutdown"})",
      R"({ "op" : "query" , "point" : -2.5e1 , "extra" : [1, {"a": null}, true, "é"] })",
  };
  return requests;
}

// Fixed-seed generator for fuzz *inputs*, not simulation randomness —
// replays stay reproducible.
// nomc-lint: allow(det-rand)
using Rng = std::mt19937_64;

std::size_t pick(Rng& rng, std::size_t n) { return n == 0 ? 0 : rng() % n; }

/// `unit` (an array or object opener) repeated until `bytes` long.
std::string nest(const std::string& unit, std::size_t bytes) {
  std::string out;
  while (out.size() + unit.size() <= bytes) out += unit;
  return out;
}

std::string mutate(Rng& rng, std::string line) {
  const std::vector<std::string>& requests = corpus();
  switch (rng() % 7) {
    case 0:  // bit flips
      for (int flips = 1 + static_cast<int>(rng() % 4); flips > 0 && !line.empty(); --flips) {
        line[pick(rng, line.size())] ^= static_cast<char>(1u << (rng() % 8));
      }
      break;
    case 1:  // truncation
      line.resize(pick(rng, line.size() + 1));
      break;
    case 2: {  // splice: a prefix of this request onto a suffix of another
      const std::string& other = requests[pick(rng, requests.size())];
      line = line.substr(0, pick(rng, line.size() + 1)) +
             other.substr(pick(rng, other.size() + 1));
      break;
    }
    case 3: {  // hostile bytes: structure, escapes, NUL, high bytes, newlines
      static const std::string kHostile = std::string{"{}[]\":,\\\n\r\t u0e-+.9"} + '\0' +
                                          "\x7f\x80\xff";
      for (int inserts = 1 + static_cast<int>(rng() % 6); inserts > 0; --inserts) {
        line.insert(pick(rng, line.size() + 1), 1, kHostile[pick(rng, kHostile.size())]);
      }
      break;
    }
    case 4: {  // deep nesting, well past anything a record or request uses
      const char* unit = rng() % 2 == 0 ? "[" : R"({"a":)";
      line = R"({"op":"ping","x":)" + nest(unit, 16 + pick(rng, 400)) + line;
      break;
    }
    case 5:  // oversize: blows the splitter cap
      while (line.size() <= kFuzzMaxLine) line += line.empty() ? std::string{"x"} : line;
      break;
    default:  // number edge cases where the grammar reads one
      line = std::string{R"({"op":"query","spec_hash":"ab","point":)"} +
             (rng() % 2 == 0 ? "1e309" : "-nan") + "}";
      break;
  }
  return line;
}

/// Feed `bytes` through a splitter in random chunk sizes and parse every
/// line it yields. Returns the number of lines taken.
std::size_t split_and_parse(Rng& rng, const std::string& bytes, LineSplitter& splitter,
                            std::string* last_line) {
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t chunk = 1 + pick(rng, 96);
    splitter.feed(bytes.substr(pos, chunk));
    pos += chunk;
    EXPECT_LT(splitter.pending(), kFuzzMaxLine);  // an overlong line is never buffered
    std::string line;
    bool oversized = false;
    while (splitter.take(line, oversized)) {
      ++lines;
      if (oversized) {
        EXPECT_TRUE(line.empty());
        continue;
      }
      Request request;
      std::string error;
      if (parse_request(line, request, error)) {
        EXPECT_FALSE(request.op.empty()) << line;
        if (!request.has_point) {
          EXPECT_EQ(request.point, -1) << line;
        }
      } else {
        EXPECT_FALSE(error.empty()) << line;
      }
      if (last_line != nullptr) *last_line = line;
    }
  }
  return lines;
}

TEST(ProtocolFuzz, MutatedRequestBytesParseOrErrorNeverCrash) {
  const std::vector<std::string>& requests = corpus();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    Rng rng{seed};
    LineSplitter splitter{kFuzzMaxLine};
    for (int round = 0; round < 400; ++round) {
      std::string bytes;
      std::size_t newlines = 0;
      for (int n = 1 + static_cast<int>(rng() % 4); n > 0; --n) {
        bytes += mutate(rng, requests[pick(rng, requests.size())]);
        bytes += '\n';
      }
      // A valid request after the garbage: framing must recover on it.
      bytes += R"({"op":"ping"})";
      bytes += '\n';
      for (const char byte : bytes) newlines += byte == '\n' ? 1 : 0;

      std::string last;
      ASSERT_EQ(split_and_parse(rng, bytes, splitter, &last), newlines);
      EXPECT_EQ(splitter.pending(), 0u);
      Request request;
      std::string error;
      ASSERT_TRUE(parse_request(last, request, error)) << error;
      EXPECT_EQ(request.op, "ping");
    }
  }
}

TEST(ProtocolFuzz, DeepNestingAtTheLineCapIsAnError) {
  // The worst a client can send in one line: nesting up to kMaxLine.
  for (const char* unit : {"[", R"({"a":)"}) {
    const std::string line = R"({"op":"ping","x":)" + nest(unit, kMaxLine - 32);
    Request request;
    std::string error;
    EXPECT_FALSE(parse_request(line, request, error));
    EXPECT_FALSE(error.empty());
  }
}

}  // namespace
}  // namespace nomc::svc
