// StoreIndex tests: sidecar build/reuse, every leg of the crash-tolerance
// contract (torn store tails, torn/corrupt/stale sidecars, in-place store
// rewrites), a randomized index-vs-linear-scan equivalence fuzz, and the
// byte-equality of the streamed CSV exporter against exp::export_csv.
#include "exp/store_index.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "exp/result_store.hpp"

namespace nomc::exp {
namespace {

constexpr const char* kHash = "00000000000000aa";

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "nomc_idx_" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), file), content.size());
  std::fclose(file);
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

/// A valid v2 record line (no newline) for `point`; `filler` varies the
/// length so offsets differ between runs of the fuzz.
std::string record_line(int point, int filler = 1, const std::string& hash = kHash) {
  const std::string value = std::to_string(filler);
  std::string line = R"({"v":2,"campaign":"c","spec_hash":")" + hash +
                     R"(","point":)" + std::to_string(point) + R"(,"sweep":{"cfd":")" + value +
                     R"("},"params":{"seed":1,"trials":1},"per_network":{"pps":[)" + value +
                     R"(],"prr":[1],"backoffs_per_s":[0],"drops_per_s":[0]},"overall_pps":)" +
                     value + R"(,"jain":1,"per_trial":{"overall_pps":[)" + value +
                     R"(],"pps":[[)" + value + R"(]]}})";
  return line;
}

TEST(StoreIndex, RefusesV1StoreEvenAsItsFinalLine) {
  // The same record as the parent format wrote it: v1, no per_trial.
  std::string v1 = record_line(0);
  v1.replace(v1.find(R"("v":2)"), 5, R"("v":1)");
  v1.erase(v1.find(R"(,"per_trial")"), std::string::npos);
  v1 += '}';
  for (const std::string& content : {v1, v1 + "\n", record_line(0) + "\n" + v1 + "\n"}) {
    const std::string store = temp_path("v1.jsonl");
    write_file(store, content);
    std::remove(StoreIndex::index_path(store).c_str());
    StoreIndex index;
    std::string error;
    EXPECT_FALSE(index.open(store, kHash, error));
    EXPECT_NE(error.find("nomc-campaign run <spec> --overwrite"), std::string::npos) << error;
  }
}

TEST(StoreIndex, BuildsFromScratchAndPersistsSidecar) {
  const std::string store = temp_path("build.jsonl");
  const std::string line0 = record_line(0);
  const std::string line1 = record_line(1, 23);
  write_file(store, line0 + "\n" + line1 + "\n");
  std::remove(StoreIndex::index_path(store).c_str());

  StoreIndex index;
  std::string error;
  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  ASSERT_EQ(index.entries().size(), 2u);
  EXPECT_EQ(index.entries()[0].offset, 0u);
  EXPECT_EQ(index.entries()[0].length, line0.size() + 1);
  EXPECT_EQ(index.entries()[1].offset, line0.size() + 1);
  EXPECT_EQ(index.covered(), line0.size() + line1.size() + 2);
  EXPECT_FALSE(index.truncated_tail());

  const std::string sidecar = read_file(StoreIndex::index_path(store));
  EXPECT_EQ(sidecar, "nomc-idx 1\n" + std::string{kHash} + " 0 0 " +
                         std::to_string(line0.size() + 1) + "\n" + kHash + " 1 " +
                         std::to_string(line0.size() + 1) + " " +
                         std::to_string(line1.size() + 1) + "\n");

  // Reopen: the sidecar is trusted verbatim (spot-checked), same view.
  StoreIndex again;
  ASSERT_TRUE(again.open(store, kHash, error)) << error;
  EXPECT_EQ(again.entries().size(), 2u);
}

TEST(StoreIndex, FindAndReadLine) {
  const std::string store = temp_path("find.jsonl");
  const std::string line1 = record_line(1, 7);
  write_file(store, record_line(0) + "\n" + line1 + "\n");
  std::remove(StoreIndex::index_path(store).c_str());

  StoreIndex index;
  std::string error;
  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  const StoreIndex::Entry* entry = index.find(kHash, 1);
  ASSERT_NE(entry, nullptr);
  std::string line;
  ASSERT_TRUE(index.read_line(*entry, line, error)) << error;
  EXPECT_EQ(line, line1);
  ResultRecord record;
  ASSERT_TRUE(index.read_record(*entry, record, error)) << error;
  EXPECT_EQ(record.point, 1);
  EXPECT_EQ(index.find(kHash, 2), nullptr);
  EXPECT_EQ(index.find("00000000000000bb", 1), nullptr);
  EXPECT_TRUE(index.contains(kHash, 0));
}

TEST(StoreIndex, TornStoreTailIsDroppedLikeScanStore) {
  const std::string store = temp_path("torn_store.jsonl");
  const std::string line0 = record_line(0);
  const std::string partial = record_line(1).substr(0, 40);  // kill mid-write
  write_file(store, line0 + "\n" + partial);
  std::remove(StoreIndex::index_path(store).c_str());

  StoreIndex index;
  std::string error;
  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  EXPECT_EQ(index.entries().size(), 1u);
  EXPECT_TRUE(index.truncated_tail());
  EXPECT_EQ(index.covered(), line0.size() + 1);

  StoreScan scan;
  ASSERT_TRUE(scan_store(store, kHash, scan, error)) << error;
  EXPECT_EQ(scan.records.size(), index.entries().size());
  EXPECT_EQ(scan.truncated_tail, index.truncated_tail());
}

TEST(StoreIndex, InteriorStoreDamageIsAnErrorNotATruncation) {
  const std::string store = temp_path("interior.jsonl");
  write_file(store, record_line(0) + "\n{broken}\n" + record_line(2) + "\n");
  std::remove(StoreIndex::index_path(store).c_str());

  StoreIndex index;
  std::string error;
  EXPECT_FALSE(index.open(store, kHash, error));
  EXPECT_NE(error.find(store), std::string::npos);
}

TEST(StoreIndex, TornSidecarFinalLineIsRepaired) {
  const std::string store = temp_path("torn_idx.jsonl");
  const std::string line0 = record_line(0);
  const std::string line1 = record_line(1, 55);
  write_file(store, line0 + "\n" + line1 + "\n");

  // Sidecar killed mid-append: entry 0 is complete, entry 1 has no newline.
  const std::string torn = "nomc-idx 1\n" + std::string{kHash} + " 0 0 " +
                           std::to_string(line0.size() + 1) + "\n" + kHash + " 1 " +
                           std::to_string(line0.size() + 1);
  write_file(StoreIndex::index_path(store), torn);

  StoreIndex index;
  std::string error;
  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  ASSERT_EQ(index.entries().size(), 2u);  // entry 1 re-derived from the tail
  EXPECT_EQ(index.entries()[1].length, line1.size() + 1);
  // The repaired sidecar is persisted complete.
  const std::string repaired = read_file(StoreIndex::index_path(store));
  EXPECT_EQ(repaired.back(), '\n');
  EXPECT_NE(repaired.find(" 1 "), std::string::npos);
}

TEST(StoreIndex, CorruptOrAlienSidecarIsDiscarded) {
  const std::string store = temp_path("corrupt_idx.jsonl");
  write_file(store, record_line(0) + "\n" + record_line(1) + "\n");

  for (const char* junk : {
           "not an index at all\n",                         // bad header
           "nomc-idx 1\ngarbage interior line\nx 1 0 5\n",  // interior damage
           "nomc-idx 1\n00000000000000aa 0 7 10\n",         // non-contiguous
       }) {
    write_file(StoreIndex::index_path(store), junk);
    StoreIndex index;
    std::string error;
    ASSERT_TRUE(index.open(store, kHash, error)) << error << " for " << junk;
    EXPECT_EQ(index.entries().size(), 2u) << junk;
    EXPECT_TRUE(index.contains(kHash, 0)) << junk;
    EXPECT_TRUE(index.contains(kHash, 1)) << junk;
  }
}

TEST(StoreIndex, SidecarCoveragePastEofTriggersRebuild) {
  const std::string store = temp_path("shrunk.jsonl");
  const std::string line0 = record_line(0);
  write_file(store, line0 + "\n" + record_line(1) + "\n");
  StoreIndex index;
  std::string error;
  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  index.close();

  // The store shrinks (overwrite with fewer points): the stale sidecar
  // claims coverage past EOF and must be rebuilt, not trusted.
  write_file(store, line0 + "\n");
  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  EXPECT_EQ(index.entries().size(), 1u);
  EXPECT_FALSE(index.contains(kHash, 1));
}

TEST(StoreIndex, SameLengthRewriteCaughtBySpotCheck) {
  const std::string store = temp_path("rewrite.jsonl");
  const std::string line1 = record_line(1, 55);
  write_file(store, record_line(0) + "\n" + line1 + "\n");
  StoreIndex index;
  std::string error;
  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  index.close();

  // Rewrite the last record in place, same byte length, different point
  // (1 -> 2). Coverage still matches; only the spot-check can notice.
  std::string moved = line1;
  const std::size_t at = moved.find("\"point\":1");
  ASSERT_NE(at, std::string::npos);
  moved.replace(at, 9, "\"point\":2");
  ASSERT_EQ(moved.size(), line1.size());
  write_file(store, record_line(0) + "\n" + moved + "\n");

  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  EXPECT_TRUE(index.contains(kHash, 2));
  EXPECT_FALSE(index.contains(kHash, 1));
}

TEST(StoreIndex, SpecHashMismatchIsAnError) {
  const std::string store = temp_path("mismatch.jsonl");
  write_file(store, record_line(0) + "\n");
  std::remove(StoreIndex::index_path(store).c_str());
  StoreIndex index;
  std::string error;
  EXPECT_FALSE(index.open(store, "00000000000000bb", error));
  EXPECT_NE(error.find("different spec"), std::string::npos);
}

TEST(StoreIndex, MissingStoreIsAnError) {
  StoreIndex index;
  std::string error;
  EXPECT_FALSE(index.open(temp_path("nonexistent.jsonl"), kHash, error));
}

// Kill-during-append at the file level: the store grows a complete record
// plus a torn one after the sidecar was written (exactly what a crashed
// campaign leaves behind), then a resume replaces the torn tail with the
// finished record. The index must track both transitions.
TEST(StoreIndex, KillDuringAppendThenResume) {
  const std::string store = temp_path("kill_resume.jsonl");
  const std::string line0 = record_line(0);
  const std::string line1 = record_line(1, 9);
  const std::string line2 = record_line(2, 123);
  write_file(store, line0 + "\n");
  StoreIndex index;
  std::string error;
  ASSERT_TRUE(index.open(store, kHash, error)) << error;  // sidecar covers line0
  index.close();

  // Crash: one full append and one torn one land after the sidecar's view.
  write_file(store, line0 + "\n" + line1 + "\n" + line2.substr(0, 30));
  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  EXPECT_EQ(index.entries().size(), 2u);
  EXPECT_TRUE(index.truncated_tail());
  EXPECT_TRUE(index.contains(kHash, 1));
  EXPECT_FALSE(index.contains(kHash, 2));
  index.close();

  // Resume: valid prefix preserved verbatim, torn point recomputed.
  write_file(store, line0 + "\n" + line1 + "\n" + line2 + "\n");
  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  EXPECT_EQ(index.entries().size(), 3u);
  EXPECT_FALSE(index.truncated_tail());
  std::string line;
  ASSERT_TRUE(index.read_line(*index.find(kHash, 2), line, error)) << error;
  EXPECT_EQ(line, line2);
}

// Randomized equivalence: for arbitrary stores (random sizes, lengths,
// duplicate points, torn tails, junk sidecars), the index must agree with
// scan_store record-for-record, byte-for-byte.
TEST(StoreIndex, MatchesLinearScanOnRandomStores) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;  // fixed seed: deterministic
  const auto next = [&state](std::uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };

  for (int round = 0; round < 40; ++round) {
    const std::string store = temp_path("fuzz.jsonl");
    const int count = static_cast<int>(next(12));
    std::string content;
    for (int i = 0; i < count; ++i) {
      // Duplicate points appear with ~1/4 probability; last record wins.
      const int point = next(4) == 0 && i > 0 ? static_cast<int>(next(i)) : i;
      content += record_line(point, static_cast<int>(next(100000)) + 1);
      content += '\n';
    }
    const bool torn = count > 0 && next(3) == 0;
    if (torn) content += record_line(count, 1).substr(0, 20 + next(30));
    write_file(store, content);

    // A third of the rounds inherit a hostile sidecar.
    const std::string sidecar_path = StoreIndex::index_path(store);
    std::remove(sidecar_path.c_str());
    if (next(3) == 0) {
      std::string junk = next(2) == 0 ? "nomc-idx 1\n" : "";
      for (std::uint64_t i = 0; i < next(4); ++i) {
        junk += kHash + std::string{" "} + std::to_string(next(10)) + " " +
                std::to_string(next(400)) + " " + std::to_string(next(200) + 1) + "\n";
      }
      write_file(sidecar_path, junk);
    }

    StoreScan scan;
    StoreIndex index;
    std::string error;
    ASSERT_TRUE(scan_store(store, kHash, scan, error)) << error;
    ASSERT_TRUE(index.open(store, kHash, error)) << error;

    ASSERT_EQ(index.entries().size(), scan.records.size()) << "round " << round;
    EXPECT_EQ(index.truncated_tail(), scan.truncated_tail) << "round " << round;
    for (const int point : scan.completed) {
      // Linear-scan convention: the last record for a point is current.
      const ResultRecord* last = nullptr;
      for (const ResultRecord& record : scan.records) {
        if (record.point == point) last = &record;
      }
      ASSERT_NE(last, nullptr);
      const StoreIndex::Entry* entry = index.find(kHash, point);
      ASSERT_NE(entry, nullptr) << "round " << round << " point " << point;
      ResultRecord via_index;
      ASSERT_TRUE(index.read_record(*entry, via_index, error)) << error;
      EXPECT_EQ(via_index.sweep, last->sweep) << "round " << round;
      EXPECT_EQ(via_index.overall_pps, last->overall_pps) << "round " << round;
    }
  }
}

// The streamed exporter must emit byte-identical CSV to the in-memory one —
// they share the row builders, this guards the plumbing around them.
TEST(StoreIndex, StreamedCsvMatchesExportCsv) {
  const std::string store = temp_path("csv.jsonl");
  write_file(store,
             record_line(0) + "\n" + record_line(1, 42) + "\n" + record_line(2, 7) + "\n");
  std::remove(StoreIndex::index_path(store).c_str());

  StoreScan scan;
  std::string error;
  ASSERT_TRUE(scan_store(store, kHash, scan, error)) << error;
  std::FILE* whole = std::tmpfile();
  ASSERT_NE(whole, nullptr);
  ASSERT_TRUE(export_csv(scan.records, whole));

  StoreIndex index;
  ASSERT_TRUE(index.open(store, kHash, error)) << error;
  std::FILE* streamed = std::tmpfile();
  ASSERT_NE(streamed, nullptr);
  ASSERT_TRUE(export_csv_indexed(index, streamed, error)) << error;

  const auto slurp = [](std::FILE* file) {
    std::string out;
    std::rewind(file);
    char buffer[4096];
    std::size_t got = 0;
    while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) out.append(buffer, got);
    return out;
  };
  const std::string a = slurp(whole);
  const std::string b = slurp(streamed);
  std::fclose(whole);
  std::fclose(streamed);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace nomc::exp
