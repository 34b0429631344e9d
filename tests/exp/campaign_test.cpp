// Campaign engine integration: resume determinism and record stability.
//
// The resume contract under test (docs/campaigns.md): the result store is
// byte-identical whether a campaign ran straight through, was interrupted
// (even mid-write) and resumed, or replicated trials with a different job
// count.
#include "exp/campaign.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "exp/result_store.hpp"
#include "exp/spec.hpp"
#include "sim/parallel.hpp"

namespace nomc::exp {
namespace {

// 4 points (2 channel counts x 2 schemes), short runs: enough structure to
// interrupt in the middle, small enough for the tier-1 suite.
constexpr const char* kSpecText =
    "name = campaign_under_test\n"
    "topology = dense\n"
    "power = 0\n"
    "warmup = 0.2\n"
    "measure = 0.5\n"
    "trials = 2\n"
    "sweep channels = 2 3\n"
    "sweep scheme = fixed dcn\n";

CampaignSpec test_spec() {
  CampaignSpec spec;
  SpecError error;
  EXPECT_TRUE(parse_campaign(kSpecText, spec, error)) << error.str();
  return spec;
}

std::string temp_path(const std::string& name) {
  // Per-process scratch: ctest runs each TEST as its own process, and two of
  // them regenerating reference.jsonl concurrently under `ctest -j` would
  // tear each other's bytes.
  return ::testing::TempDir() + "nomc_campaign_" + std::to_string(::getpid()) + "_" + name;
}

std::string read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  if (file == nullptr) return "";
  std::string content;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, file)) > 0) content.append(buffer, got);
  std::fclose(file);
  return content;
}

void append_bytes(const std::string& path, const std::string& bytes) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
}

CampaignOptions quiet_options(CampaignOptions::Mode mode, int jobs = 1) {
  CampaignOptions options;
  options.mode = mode;
  options.jobs = jobs;
  options.quiet = true;
  return options;
}

/// The uninterrupted single-job store: the reference bytes every other
/// execution shape must reproduce. Computed once, shared across tests.
const std::string& reference_bytes() {
  static const std::string bytes = [] {
    const std::string path = temp_path("reference.jsonl");
    std::string error;
    CampaignStats stats;
    EXPECT_TRUE(run_campaign(test_spec(), path,
                             quiet_options(CampaignOptions::Mode::kOverwrite), &stats, error))
        << error;
    EXPECT_EQ(stats.total, 4);
    EXPECT_EQ(stats.computed, 4);
    return read_file(path);
  }();
  return bytes;
}

TEST(Campaign, StoreHasOneValidRecordPerPoint) {
  const std::string path = temp_path("records.jsonl");
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  const std::string& bytes = reference_bytes();
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);

  StoreScan scan;
  std::string error;
  ASSERT_TRUE(scan_store(path, spec_hash(test_spec()), scan, error)) << error;
  ASSERT_EQ(scan.records.size(), 4u);
  for (int point = 0; point < 4; ++point) {
    EXPECT_EQ(scan.records[static_cast<std::size_t>(point)].point, point);
    EXPECT_EQ(scan.completed.count(point), 1u);
  }
  // Point 0: 2 networks, all numbers populated.
  const ResultRecord& first = scan.records[0];
  ASSERT_EQ(first.pps.size(), 2u);
  EXPECT_GT(first.overall_pps, 0.0);
  EXPECT_GT(first.jain, 0.0);
  ASSERT_EQ(first.sweep.size(), 2u);
  EXPECT_EQ(first.sweep[0].first, "channels");
  EXPECT_EQ(first.sweep[1].first, "scheme");
}

TEST(Campaign, InterruptAfterTwoPointsThenResumeIsByteIdentical) {
  const std::string path = temp_path("interrupted.jsonl");
  std::string error;

  CampaignOptions interrupted = quiet_options(CampaignOptions::Mode::kOverwrite);
  interrupted.max_points = 2;
  CampaignStats stats;
  ASSERT_TRUE(run_campaign(test_spec(), path, interrupted, &stats, error)) << error;
  EXPECT_EQ(stats.computed, 2);
  ASSERT_NE(read_file(path), reference_bytes());  // genuinely partial

  ASSERT_TRUE(run_campaign(test_spec(), path, quiet_options(CampaignOptions::Mode::kResume),
                           &stats, error))
      << error;
  EXPECT_EQ(stats.reused, 2);
  EXPECT_EQ(stats.computed, 2);
  EXPECT_EQ(read_file(path), reference_bytes());
}

TEST(Campaign, ResumeAfterTornWriteIsByteIdentical) {
  const std::string path = temp_path("torn.jsonl");
  std::string error;

  CampaignOptions interrupted = quiet_options(CampaignOptions::Mode::kOverwrite);
  interrupted.max_points = 1;
  CampaignStats stats;
  ASSERT_TRUE(run_campaign(test_spec(), path, interrupted, &stats, error)) << error;
  // A kill mid-write leaves a partial record with no trailing newline.
  append_bytes(path, R"({"v":2,"campaign":"campaign_under_)");

  ASSERT_TRUE(run_campaign(test_spec(), path, quiet_options(CampaignOptions::Mode::kResume),
                           &stats, error))
      << error;
  EXPECT_EQ(stats.reused, 1);
  EXPECT_EQ(stats.computed, 3);
  EXPECT_EQ(read_file(path), reference_bytes());
}

TEST(Campaign, JobCountDoesNotChangeTheBytes) {
  const std::string path = temp_path("jobs.jsonl");
  std::string error;
  CampaignStats stats;
  ASSERT_TRUE(run_campaign(test_spec(), path,
                           quiet_options(CampaignOptions::Mode::kOverwrite, /*jobs=*/4),
                           &stats, error))
      << error;
  EXPECT_EQ(read_file(path), reference_bytes());
}

TEST(Campaign, PointJobsDoesNotChangeTheBytes) {
  // Campaign-level parallelism: points computed concurrently, checkpointed
  // in order through the reorder buffer — the store must not care.
  for (const int point_jobs : {2, 3}) {
    SCOPED_TRACE("point_jobs " + std::to_string(point_jobs));
    const std::string path = temp_path("point_jobs.jsonl");
    std::string error;
    CampaignStats stats;
    CampaignOptions options = quiet_options(CampaignOptions::Mode::kOverwrite, /*jobs=*/2);
    options.point_jobs = point_jobs;
    ASSERT_TRUE(run_campaign(test_spec(), path, options, &stats, error)) << error;
    EXPECT_EQ(stats.computed, 4);
    EXPECT_EQ(read_file(path), reference_bytes());
  }
}

TEST(Campaign, TornWriteResumeWithPointJobsIsByteIdentical) {
  // Torn-write recovery composes with out-of-order completion: interrupt a
  // parallel run mid-record AND mid-timing-line, resume at a different
  // split, and the store still matches the serial reference.
  const std::string path = temp_path("torn_parallel.jsonl");
  std::string error;

  CampaignOptions interrupted = quiet_options(CampaignOptions::Mode::kOverwrite);
  interrupted.max_points = 2;
  interrupted.point_jobs = 2;
  CampaignStats stats;
  ASSERT_TRUE(run_campaign(test_spec(), path, interrupted, &stats, error)) << error;
  append_bytes(path, R"({"v":2,"campaign":"campaign_under_)");
  append_bytes(path + ".timing", R"({"point":2,"wall)");

  CampaignOptions resumed = quiet_options(CampaignOptions::Mode::kResume, /*jobs=*/2);
  resumed.point_jobs = 3;
  ASSERT_TRUE(run_campaign(test_spec(), path, resumed, &stats, error)) << error;
  EXPECT_EQ(stats.reused, 2);
  EXPECT_EQ(stats.computed, 2);
  EXPECT_EQ(read_file(path), reference_bytes());
}

TEST(Campaign, ResumeRebuildsTimingSidecar) {
  // The sidecar after a torn-write resume holds whole parsable lines only,
  // one per newly-computed point plus the surviving completed-point lines.
  const std::string path = temp_path("sidecar.jsonl");
  std::string error;

  CampaignOptions interrupted = quiet_options(CampaignOptions::Mode::kOverwrite);
  interrupted.max_points = 1;
  CampaignStats stats;
  ASSERT_TRUE(run_campaign(test_spec(), path, interrupted, &stats, error)) << error;
  append_bytes(path + ".timing", "{\"point\":1,\"wall_ms\":");  // torn timing line

  CampaignOptions resumed = quiet_options(CampaignOptions::Mode::kResume);
  resumed.point_jobs = 2;
  ASSERT_TRUE(run_campaign(test_spec(), path, resumed, &stats, error)) << error;
  EXPECT_EQ(read_file(path), reference_bytes());

  const std::string sidecar = read_file(path + ".timing");
  int lines = 0;
  std::size_t start = 0;
  int expected_point = 0;
  while (start < sidecar.size()) {
    const std::size_t newline = sidecar.find('\n', start);
    ASSERT_NE(newline, std::string::npos) << "torn sidecar line survived resume";
    JsonValue parsed;
    ASSERT_TRUE(parse_json(sidecar.substr(start, newline - start), parsed, error)) << error;
    const JsonValue* point = parsed.find("point");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(static_cast<int>(point->number), expected_point++);
    ASSERT_NE(parsed.find("wall_ms"), nullptr);
    EXPECT_GT(parsed.find("wall_ms")->number, 0.0);
    ++lines;
    start = newline + 1;
  }
  EXPECT_EQ(lines, 4);  // point 0 survived; points 1..3 freshly timed
}

TEST(Campaign, ResumeOfCompleteCampaignRecomputesNothing) {
  const std::string path = temp_path("complete.jsonl");
  std::string error;
  CampaignStats stats;
  ASSERT_TRUE(run_campaign(test_spec(), path, quiet_options(CampaignOptions::Mode::kOverwrite),
                           &stats, error))
      << error;
  ASSERT_TRUE(run_campaign(test_spec(), path, quiet_options(CampaignOptions::Mode::kResume),
                           &stats, error))
      << error;
  EXPECT_EQ(stats.computed, 0);
  EXPECT_EQ(stats.reused, 4);
  EXPECT_EQ(read_file(path), reference_bytes());
}

TEST(Campaign, FreshModeRefusesExistingStore) {
  const std::string path = temp_path("fresh.jsonl");
  std::string error;
  CampaignStats stats;
  ASSERT_TRUE(run_campaign(test_spec(), path, quiet_options(CampaignOptions::Mode::kOverwrite),
                           &stats, error));
  EXPECT_FALSE(run_campaign(test_spec(), path, quiet_options(CampaignOptions::Mode::kFresh),
                            &stats, error));
  EXPECT_NE(error.find("already exists"), std::string::npos);
}

TEST(Campaign, ResumeRefusesStoreFromDifferentSpec) {
  const std::string path = temp_path("wrong_spec.jsonl");
  std::string error;
  CampaignStats stats;
  ASSERT_TRUE(run_campaign(test_spec(), path, quiet_options(CampaignOptions::Mode::kOverwrite),
                           &stats, error));

  CampaignSpec changed = test_spec();
  changed.base.trials = 3;  // any spec change flips the hash
  EXPECT_FALSE(run_campaign(changed, path, quiet_options(CampaignOptions::Mode::kResume),
                            &stats, error));
  EXPECT_NE(error.find("different spec"), std::string::npos);
}

TEST(Campaign, RunPointMatchesStoredRecordNumbers) {
  // format_record(run_point(...)) for point 0 must reproduce the reference
  // store's first line exactly — the byte-determinism contract at the unit
  // level, independent of run_campaign's bookkeeping.
  const CampaignSpec spec = test_spec();
  const auto points = expand_grid(spec);
  sim::ParallelRunner runner{2};
  const PointResult result = run_point(points[0].params, runner);
  const std::string line = format_record(spec, points[0], result);
  const std::string& reference = reference_bytes();
  EXPECT_EQ(reference.substr(0, line.size() + 1), line + "\n");
}

TEST(Campaign, PerTrialValuesAreEachTrialInSeedOrder) {
  // per_trial row i is trial i's own result (trial_seed(seed, i)), so a
  // paired comparison of two points pairs equal deployment seeds.
  const CampaignSpec spec = test_spec();
  const std::vector<SweepPoint> points = expand_grid(spec);
  const PointParams& params = points[1].params;
  sim::ParallelRunner runner{2};
  const PointResult result = run_point(params, runner);
  ASSERT_EQ(result.trial_overall_pps.size(), static_cast<std::size_t>(params.trials));
  ASSERT_EQ(result.trial_pps.size(), static_cast<std::size_t>(params.trials));
  for (int trial = 0; trial < params.trials; ++trial) {
    const TrialResult one = run_trial(params, trial);
    EXPECT_EQ(result.trial_overall_pps[static_cast<std::size_t>(trial)], one.overall_pps);
    EXPECT_EQ(result.trial_pps[static_cast<std::size_t>(trial)], one.pps);
  }
  EXPECT_NE(result.trial_overall_pps.front(), result.trial_overall_pps.back());
}

// The flat (point, trial) pool. Trial counts 1, 4, 2 are uneven and divide
// none of the pool sizes below, so points finish out of order and a point's
// trials straddle threads.
constexpr const char* kUnevenSpecText =
    "name = uneven_trials\n"
    "topology = dense\n"
    "power = 0\n"
    "warmup = 0.1\n"
    "measure = 0.2\n"
    "sweep channels = 2 3\n"
    "sweep trials = 1 4 2\n";

CampaignSpec parse_spec(const std::string& text) {
  CampaignSpec spec;
  SpecError error;
  EXPECT_TRUE(parse_campaign(text, spec, error)) << error.str();
  return spec;
}

/// The "point" fields of a .timing sidecar, in line order.
std::vector<int> timing_points(const std::string& path) {
  std::vector<int> points;
  const std::string sidecar = read_file(path + ".timing");
  std::size_t start = 0;
  while (start < sidecar.size()) {
    const std::size_t newline = sidecar.find('\n', start);
    if (newline == std::string::npos) break;
    JsonValue parsed;
    std::string error;
    EXPECT_TRUE(parse_json(sidecar.substr(start, newline - start), parsed, error)) << error;
    const JsonValue* point = parsed.find("point");
    points.push_back(point == nullptr ? -1 : static_cast<int>(point->number));
    start = newline + 1;
  }
  return points;
}

CampaignOptions split_options(CampaignOptions::Mode mode, int jobs, int point_jobs) {
  CampaignOptions options = quiet_options(mode, jobs);
  options.point_jobs = point_jobs;
  return options;
}

TEST(Campaign, FlatPoolSplitsGiveIdenticalStoreAndTimingOrder) {
  const CampaignSpec spec = parse_spec(kUnevenSpecText);
  const std::vector<int> in_order = {0, 1, 2, 3, 4, 5};
  std::string error;
  CampaignStats stats;
  const std::string reference_path = temp_path("uneven_reference.jsonl");
  const CampaignOptions serial = split_options(CampaignOptions::Mode::kOverwrite, 1, 1);
  ASSERT_TRUE(run_campaign(spec, reference_path, serial, &stats, error)) << error;
  ASSERT_EQ(stats.computed, 6);
  const std::string reference = read_file(reference_path);
  EXPECT_EQ(timing_points(reference_path), in_order);

  const std::vector<std::pair<int, int>> splits = {{1, 2}, {2, 3}, {1, 7}, {3, 1}};
  for (const auto& [jobs, point_jobs] : splits) {
    SCOPED_TRACE("jobs " + std::to_string(jobs) + " point_jobs " + std::to_string(point_jobs));
    const std::string path = temp_path("uneven_split.jsonl");
    const CampaignOptions split =
        split_options(CampaignOptions::Mode::kOverwrite, jobs, point_jobs);
    ASSERT_TRUE(run_campaign(spec, path, split, &stats, error)) << error;
    EXPECT_EQ(read_file(path), reference);
    EXPECT_EQ(timing_points(path), in_order);
  }

  // Interrupted at one split, resumed at another.
  const std::string path = temp_path("uneven_resumed.jsonl");
  CampaignOptions interrupted = split_options(CampaignOptions::Mode::kOverwrite, 2, 3);
  interrupted.max_points = 3;
  ASSERT_TRUE(run_campaign(spec, path, interrupted, &stats, error)) << error;
  EXPECT_EQ(stats.computed, 3);
  const CampaignOptions resumed = split_options(CampaignOptions::Mode::kResume, 1, 7);
  ASSERT_TRUE(run_campaign(spec, path, resumed, &stats, error)) << error;
  EXPECT_EQ(stats.reused, 3);
  EXPECT_EQ(stats.computed, 3);
  EXPECT_EQ(read_file(path), reference);
  EXPECT_EQ(timing_points(path), in_order);
}

TEST(Campaign, WideGridFinishesUnderCheckpointBackPressure) {
  // One-trial points, many more than the checkpointer's reorder bound
  // (2 x pool threads = 8 here): finished points outrun the flush cursor
  // and block in submit, yet the point at the cursor is always in flight.
  std::string text = "name = wide_grid\ntopology = dense\npower = 0\nwarmup = 0\n";
  text += "measure = 0.02\nsweep seed =";
  for (int seed = 1; seed <= 48; ++seed) {
    text += ' ';
    text += std::to_string(seed);
  }
  const CampaignSpec spec = parse_spec(text + "\n");
  std::string error;
  CampaignStats stats;
  const std::string serial_path = temp_path("wide_serial.jsonl");
  const CampaignOptions serial = split_options(CampaignOptions::Mode::kOverwrite, 1, 1);
  ASSERT_TRUE(run_campaign(spec, serial_path, serial, &stats, error)) << error;
  const std::string path = temp_path("wide_parallel.jsonl");
  const CampaignOptions parallel = split_options(CampaignOptions::Mode::kOverwrite, 2, 2);
  ASSERT_TRUE(run_campaign(spec, path, parallel, &stats, error)) << error;
  EXPECT_EQ(stats.computed, 48);
  EXPECT_EQ(read_file(path), read_file(serial_path));
}

TEST(Campaign, OptionalKeysReachTheTrial) {
  // Each optional key, set to the value the scenario uses anyway, leaves the
  // trial bit for bit as it was (a power.N override rewrites the placed
  // links, so no placement draw moves); set to another value, it changes the
  // trial. The warm-up outlasts DCN's 1 s initializing phase, before which
  // neither DCN knob acts. cca.N acts on fixed-CCA senders only.
  struct Case {
    const char* scheme;
    const char* topology;
    const char* key;
    const char* same;
    const char* other;
  };
  const Case cases[] = {
      {"dcn", "dense", "scheme.1", "dcn", "fixed"},
      {"dcn", "dense", "power.1", "0", "-30"},
      {"fixed", "dense", "cca.0", "-77", "-55"},
      {"dcn", "dense", "dcn-margin", "2", "8"},
      {"dcn", "dense", "dcn-tu", "3", "0.1"},
      {"dcn", "dense", "region", "7", "3"},
      {"dcn", "clustered", "room-spacing", "15", "1.8"},
  };
  const auto trial = [](const Case& c, const char* key, const char* value) {
    std::string text = "channels = 4\npower = 0\nwarmup = 1.2\nmeasure = 0.5\nscheme = ";
    text += std::string{c.scheme} + "\ntopology = " + c.topology + "\n";
    if (key != nullptr) text += std::string{key} + " = " + value + "\n";
    return run_trial(parse_spec(text).base, 0);
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.key);
    const TrialResult base = trial(c, nullptr, nullptr);
    const TrialResult same = trial(c, c.key, c.same);
    const TrialResult other = trial(c, c.key, c.other);
    EXPECT_EQ(same.pps, base.pps);
    EXPECT_EQ(same.prr, base.prr);
    EXPECT_EQ(same.backoffs_per_s, base.backoffs_per_s);
    EXPECT_NE(other.backoffs_per_s, base.backoffs_per_s);
  }
}

}  // namespace
}  // namespace nomc::exp
