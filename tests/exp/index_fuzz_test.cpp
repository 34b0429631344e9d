// Fixed-seed mutation fuzz of the ".idx" sidecar reader. A valid sidecar is
// put through bit flips, truncations, byte splices, line duplications and
// swaps and hostile number tokens, then StoreIndex::open reads it beside an
// intact store. The sidecar is derived data, so no mutant may crash the
// reader or make it refuse an intact store: every one is trusted or rebuilt,
// and the index that opens must describe the store's actual record
// boundaries, so reading through it cannot run past a record.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "exp/result_store.hpp"
#include "exp/store_index.hpp"

namespace nomc::exp {
namespace {

constexpr const char* kHash = "00000000000000aa";
constexpr int kRecords = 12;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nomc_idx_fuzz_" + name;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), file) == content.size();
  std::fclose(file);
  return ok;
}

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return {};
  std::string out;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) out.append(buffer, got);
  std::fclose(file);
  return out;
}

/// A valid v2 record line (no newline); `filler` varies its length, and odd
/// points carry two trials in per_trial.
std::string record_line(int point, int filler) {
  const std::string value = std::to_string(filler);
  const bool two = point % 2 == 1;
  return R"({"v":2,"campaign":"c","spec_hash":")" + std::string{kHash} + R"(","point":)" +
         std::to_string(point) + R"(,"sweep":{"cfd":")" + value +
         R"("},"params":{"seed":1,"trials":)" + (two ? "2" : "1") +
         R"(},"per_network":{"pps":[)" + value +
         R"(],"prr":[1],"backoffs_per_s":[0],"drops_per_s":[0]},"overall_pps":)" + value +
         R"(,"jain":1,"per_trial":{"overall_pps":[)" + value + (two ? "," + value : "") +
         R"(],"pps":[[)" + value + (two ? "],[" + value : "") + R"(]]}})";
}

// Fixed-seed generator for fuzz *inputs*, not simulation randomness —
// replays stay reproducible.
// nomc-lint: allow(det-rand)
using Rng = std::mt19937_64;

std::size_t pick(Rng& rng, std::size_t n) { return n == 0 ? 0 : rng() % n; }

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start + 1));
    start = end + 1;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

/// Replace one digit run with a hostile number: huge, negative, overflowing
/// 64 bits, or the store size, so lengths and offsets point anywhere.
std::string inject_number(Rng& rng, const std::string& text, std::size_t store_size) {
  const std::vector<std::string> tokens = {
      "0",  "-1", "18446744073709551615", "18446744073709551616", "9223372036854775807",
      "99999999999999999999999", std::to_string(store_size), std::to_string(store_size + 1),
      "2147483648", "-0"};
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const bool digit = text[i] >= '0' && text[i] <= '9';
    if (digit && (i == 0 || text[i - 1] == ' ')) starts.push_back(i);
  }
  if (starts.empty()) return text;
  const std::size_t at = starts[pick(rng, starts.size())];
  std::size_t end = at;
  while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
  return text.substr(0, at) + tokens[pick(rng, tokens.size())] + text.substr(end);
}

std::string mutate(Rng& rng, const std::string& seed, std::size_t store_size) {
  std::string text = seed;
  const int rounds = 1 + static_cast<int>(pick(rng, 3));
  for (int round = 0; round < rounds; ++round) {
    switch (pick(rng, 7)) {
      case 0: {  // flip one bit
        if (text.empty()) break;
        text[pick(rng, text.size())] ^= static_cast<char>(1u << pick(rng, 8));
        break;
      }
      case 1: {  // truncate
        text.resize(pick(rng, text.size() + 1));
        break;
      }
      case 2: {  // splice: copy a run of the seed over a random position
        const std::size_t from = pick(rng, seed.size());
        const std::size_t length = 1 + pick(rng, 24);
        const std::string run = seed.substr(from, length);
        const std::size_t to = pick(rng, text.size() + 1);
        text.replace(to, pick(rng, run.size() + 1), run);
        break;
      }
      case 3: {  // delete a run
        const std::size_t from = pick(rng, text.size() + 1);
        text.erase(from, 1 + pick(rng, 16));
        break;
      }
      case 4: {  // duplicate or drop a whole line
        std::vector<std::string> lines = lines_of(text);
        if (lines.empty()) break;
        const std::size_t i = pick(rng, lines.size());
        if (rng() % 2 == 0) {
          lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(pick(rng, lines.size() + 1)),
                       lines[i]);
        } else {
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
        }
        text = join(lines);
        break;
      }
      case 5: {  // swap two lines
        std::vector<std::string> lines = lines_of(text);
        if (lines.size() < 2) break;
        std::swap(lines[pick(rng, lines.size())], lines[pick(rng, lines.size())]);
        text = join(lines);
        break;
      }
      default:
        text = inject_number(rng, text, store_size);
        break;
    }
  }
  return text;
}

TEST(IndexFuzz, MutatedSidecarIsRepairedAndNeverTrustedPastTheStore) {
  // The store: kRecords records of varied lengths, optionally a torn tail.
  for (const bool torn_tail : {false, true}) {
    const std::string store = temp_path(torn_tail ? "torn.jsonl" : "clean.jsonl");
    const std::string sidecar = StoreIndex::index_path(store);
    std::string content;
    for (int point = 0; point < kRecords; ++point) {
      content += record_line(point, 1 + point * 37 % 1000) + "\n";
    }
    if (torn_tail) content += record_line(kRecords, 5).substr(0, 30);
    ASSERT_TRUE(write_file(store, content));
    std::remove(sidecar.c_str());

    StoreScan scan;
    std::string error;
    ASSERT_TRUE(scan_store(store, kHash, scan, error)) << error;
    ASSERT_EQ(scan.records.size(), static_cast<std::size_t>(kRecords));
    // The record boundaries the store really has.
    std::vector<std::uint64_t> offsets;
    std::vector<std::uint64_t> lengths;
    {
      std::uint64_t offset = 0;
      for (const std::string& line : lines_of(content)) {
        if (line.back() != '\n') break;
        offsets.push_back(offset);
        lengths.push_back(line.size());
        offset += line.size();
      }
    }

    std::string seed_sidecar;
    {
      StoreIndex index;
      ASSERT_TRUE(index.open(store, kHash, error)) << error;
      seed_sidecar = read_file(sidecar);
      ASSERT_FALSE(seed_sidecar.empty());
    }

    Rng rng{torn_tail ? 20261017u : 17u};
    for (int iteration = 0; iteration < 1500; ++iteration) {
      const std::string mutant = mutate(rng, seed_sidecar, content.size());
      ASSERT_TRUE(write_file(sidecar, mutant));
      const std::string expected_hash = iteration % 4 == 0 ? "" : kHash;
      StoreIndex index;
      std::string open_error;
      ASSERT_TRUE(index.open(store, expected_hash, open_error))
          << "iteration " << iteration << ": " << open_error << "\nsidecar:\n"
          << mutant;
      ASSERT_EQ(index.entries().size(), scan.records.size())
          << "iteration " << iteration << ", sidecar:\n"
          << mutant;
      for (std::size_t i = 0; i < index.entries().size(); ++i) {
        const StoreIndex::Entry& entry = index.entries()[i];
        ASSERT_EQ(entry.offset, offsets[i]) << "iteration " << iteration << ", entry " << i;
        ASSERT_EQ(entry.length, lengths[i]) << "iteration " << iteration << ", entry " << i;
        ResultRecord record;
        std::string read_error;
        ASSERT_TRUE(index.read_record(entry, record, read_error)) << read_error;
      }
      EXPECT_EQ(index.covered(), offsets.back() + lengths.back());
      EXPECT_EQ(index.truncated_tail(), torn_tail);
    }
    std::remove(sidecar.c_str());
    std::remove(store.c_str());
  }
}

}  // namespace
}  // namespace nomc::exp
