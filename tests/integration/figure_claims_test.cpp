// The paper's figure verdicts as assertions. Each TEST runs one full-size
// example campaign (examples/campaigns/) through exp::run_campaign on all
// cores, as `nomc-campaign run --jobs 0` does, and checks the claim
// EXPERIMENTS.md states for that figure. A failure names the claim and the
// measured value.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/result_store.hpp"
#include "exp/spec.hpp"

namespace nomc::exp {
namespace {

struct Point {
  PointParams params;
  ResultRecord record;
};

/// Every point of examples/campaigns/<name>.campaign, in grid order, read
/// back from the store run_campaign wrote.
std::vector<Point> run_example(const std::string& name) {
  CampaignSpec spec;
  SpecError spec_error;
  if (!load_campaign(std::string{NOMC_CAMPAIGNS_DIR} + "/" + name + ".campaign", spec,
                     spec_error)) {
    ADD_FAILURE() << name << ": " << spec_error.str();
    return {};
  }
  // Per-process scratch store: ctest runs each TEST as its own process.
  const std::string store = ::testing::TempDir() + "nomc_claims_" +
                            std::to_string(::getpid()) + "_" + name + ".jsonl";
  CampaignOptions options;
  options.jobs = 0;
  options.mode = CampaignOptions::Mode::kOverwrite;
  options.quiet = true;
  std::string error;
  StoreScan scan;
  const bool ok = run_campaign(spec, store, options, nullptr, error) &&
                  scan_store(store, spec_hash(spec), scan, error);
  std::remove(store.c_str());
  std::remove((store + ".timing").c_str());
  if (!ok) {
    ADD_FAILURE() << name << ": " << error;
    return {};
  }
  const std::vector<SweepPoint> grid = expand_grid(spec);
  std::vector<Point> points;
  for (ResultRecord& record : scan.records) {
    points.push_back({grid[static_cast<std::size_t>(record.point)].params, std::move(record)});
  }
  return points;
}

double gain(const Point& without, const Point& with) {
  return with.record.overall_pps / without.record.overall_pps - 1.0;
}

TEST(FigureClaims, Fig01ThroughputPeaksAtCfd3) {
  const std::vector<Point> points = run_example("fig01_cfd");
  ASSERT_EQ(points.size(), 5u);
  const Point* best = &points.front();
  for (const Point& point : points) {
    if (point.record.overall_pps > best->record.overall_pps) best = &point;
  }
  EXPECT_EQ(best->params.cfd_mhz, 3.0)
      << "Fig. 1 claim: the 12 MHz band's throughput peaks at CFD = 3 MHz; measured peak at CFD = "
      << best->params.cfd_mhz << " MHz (" << best->record.overall_pps << " pkt/s)";
}

TEST(FigureClaims, Figs6To7RelaxingTheVictimIsFreeThroughput) {
  // The fig5 rig's points sweep the victim's (network 0's) threshold from
  // -95 up to -20 dBm; the fig5-cochannel points (Fig. 8) follow.
  const std::vector<Point> points = run_example("fig06_08_cca_sweep");
  ASSERT_EQ(points.size(), 32u);
  const Point& conservative = points.front();
  const Point& relaxed = points[15];
  ASSERT_EQ(conservative.params.network_cca_dbm.at(0), -95.0);
  ASSERT_EQ(relaxed.params.network_cca_dbm.at(0), -20.0);
  ASSERT_EQ(relaxed.params.topology, "fig5");
  EXPECT_GT(relaxed.record.overall_pps, conservative.record.overall_pps)
      << "Fig. 7 claim: relaxing the victim's threshold raises the five networks' overall "
         "throughput; measured "
      << relaxed.record.overall_pps << " pkt/s at -20 dBm vs "
      << conservative.record.overall_pps << " at -95";
  for (const Point& point : points) {
    if (point.params.topology != "fig5") continue;
    EXPECT_GE(point.record.prr[0], 0.97)
        << "Fig. 6 claim: inter-channel energy is tolerable, the victim's PRR stays ~100 %; "
           "measured "
        << 100.0 * point.record.prr[0] << " % at " << point.params.network_cca_dbm.at(0)
        << " dBm";
  }
}

TEST(FigureClaims, Figs9To10RelaxingHelpsEveryPowerAndStrongLinksKeepTheirPrr) {
  // Points run threshold by threshold (-95 -85 ... -25 dBm), each at the
  // victim powers -8 -11 -15 -22 -33 dBm.
  const std::vector<Point> points = run_example("fig09_10_txpower");
  ASSERT_EQ(points.size(), 40u);
  const auto victim = [&](double cca, double power) -> const ResultRecord& {
    for (const Point& point : points) {
      if (point.params.network_cca_dbm.at(0) == cca &&
          point.params.network_power_dbm.at(0) == power) {
        return point.record;
      }
    }
    ADD_FAILURE() << "no point at " << cca << " dBm, " << power << " dBm";
    return points.front().record;
  };
  for (const Point& point : points) {
    const double power = point.params.network_power_dbm.at(0);
    if (power < -15.0) continue;
    EXPECT_GE(point.record.prr[0], 0.99)
        << "Fig. 10 claim: at TX powers >= -15 dBm the victim's PRR stays ~100 %; measured "
        << 100.0 * point.record.prr[0] << " % at " << power << " dBm, threshold "
        << point.params.network_cca_dbm.at(0) << " dBm";
  }
  for (const double power : {-8.0, -11.0, -15.0, -22.0, -33.0}) {
    EXPECT_GT(victim(-65.0, power).pps[0], victim(-95.0, power).pps[0])
        << "Fig. 9 claim: relaxing the threshold helps at every power; at " << power
        << " dBm measured " << victim(-65.0, power).pps[0] << " pkt/s at -65 dBm vs "
        << victim(-95.0, power).pps[0] << " at -95";
  }
}

TEST(FigureClaims, Figs16To18DcnHelpsEveryNetworkAndCfd3BeatsCfd2) {
  // Grid order: (cfd 2, fixed), (cfd 2, dcn), (cfd 3, fixed), (cfd 3, dcn).
  const std::vector<Point> points = run_example("fig16_18_dcn_all");
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t p = 0; p < points.size(); p += 2) {
    const ResultRecord& without = points[p].record;
    const ResultRecord& with = points[p + 1].record;
    ASSERT_EQ(without.pps.size(), with.pps.size());
    for (std::size_t n = 0; n < with.pps.size(); ++n) {
      EXPECT_GT(with.pps[n], without.pps[n])
          << "Figs. 16-17 claim: every network gains under DCN; at CFD = "
          << points[p].params.cfd_mhz << " MHz network N" << n << " measured " << with.pps[n]
          << " pkt/s with DCN vs " << without.pps[n] << " without";
    }
  }
  const double ratio = points[3].record.overall_pps / points[1].record.overall_pps;
  EXPECT_GT(ratio, 1.0) << "Fig. 18 claim: under DCN, CFD = 3 MHz beats CFD = 2 MHz overall; "
                           "measured CFD 3 / CFD 2 = "
                        << ratio;
}

TEST(FigureClaims, Fig19DcnGainInsideCalibratedBand) {
  // Point 0: ZigBee (4 channels at 5 MHz, fixed CCA); point 1: DCN design.
  const std::vector<Point> points = run_example("fig19_zigbee_vs_dcn");
  ASSERT_EQ(points.size(), 2u);
  const double measured = gain(points[0], points[1]);
  EXPECT_TRUE(measured >= 0.38 && measured <= 0.58)
      << "Fig. 19 claim: DCN/ZigBee overall gain inside the 38-58 % band "
         "(docs/calibration.md); measured "
      << 100.0 * measured << " %";
}

TEST(FigureClaims, Figs14To15DcnOnN0HelpsItAndCostsTheOthers) {
  // Grid order: (cfd 2, N0 fixed), (cfd 2, N0 dcn), (cfd 3, ...); N0 is
  // network 2, the median frequency of five.
  const std::vector<Point> points = run_example("fig14_15_dcn_n0_only");
  ASSERT_EQ(points.size(), 4u);
  constexpr std::size_t kN0 = 2;
  for (std::size_t p = 0; p < points.size(); p += 2) {
    const ResultRecord& without = points[p].record;
    const ResultRecord& with = points[p + 1].record;
    ASSERT_EQ(with.pps.size(), 5u);
    const double others_without = without.overall_pps - without.pps[kN0];
    const double others_with = with.overall_pps - with.pps[kN0];
    EXPECT_GT(with.pps[kN0], without.pps[kN0])
        << "Fig. 14 claim: N0 gains under DCN; at CFD = " << points[p].params.cfd_mhz
        << " MHz measured " << with.pps[kN0] << " pkt/s with vs " << without.pps[kN0]
        << " without";
    EXPECT_LT(others_with, others_without)
        << "Fig. 15 claim: the other four networks lose when N0 runs DCN; at CFD = "
        << points[p].params.cfd_mhz << " MHz measured " << others_with << " pkt/s with vs "
        << others_without << " without";
  }
}

TEST(FigureClaims, Fig20To21N0GrowsWithPowerOthersStayFlat) {
  // Points sweep network 3's power over -33 -22 -15 -11 -6 -3 0 dBm.
  const std::vector<Point> points = run_example("fig20_21_power_impact");
  ASSERT_EQ(points.size(), 7u);
  constexpr std::size_t kN0 = 3;
  const auto n0_at = [&](double dbm) {
    for (const Point& point : points) {
      if (point.params.network_power_dbm.at(static_cast<int>(kN0)) == dbm) {
        return point.record.pps[kN0];
      }
    }
    ADD_FAILURE() << "no point at " << dbm << " dBm";
    return 0.0;
  };
  EXPECT_GT(n0_at(0.0), n0_at(-15.0))
      << "Fig. 20 claim: N0 grows with its power; measured " << n0_at(0.0)
      << " pkt/s at 0 dBm vs " << n0_at(-15.0) << " at -15 dBm";
  EXPECT_GT(n0_at(-15.0), n0_at(-33.0))
      << "Fig. 20 claim: N0 grows with its power; measured " << n0_at(-15.0)
      << " pkt/s at -15 dBm vs " << n0_at(-33.0) << " at -33 dBm";
  double mean = 0.0;
  for (const Point& point : points) mean += point.record.overall_pps - point.record.pps[kN0];
  mean /= static_cast<double>(points.size());
  for (const Point& point : points) {
    const double others = point.record.overall_pps - point.record.pps[kN0];
    EXPECT_NEAR(others / mean, 1.0, 0.02)
        << "Fig. 21 claim: the other networks' total stays within 2 % of its mean ("
        << mean << " pkt/s); measured " << others << " pkt/s with N0 at "
        << point.params.network_power_dbm.at(static_cast<int>(kN0)) << " dBm";
  }
}

TEST(FigureClaims, TableIDcnIsFair) {
  // Points sweep the safety margin over 0 2 4 8 dB; Table I is the 2 dB
  // default.
  const std::vector<Point> points = run_example("table1_fairness");
  ASSERT_EQ(points.size(), 4u);
  ASSERT_EQ(points[1].params.dcn_margin_db, 2.0);
  EXPECT_GE(points[1].record.jain, 0.99)
      << "Table I claim: DCN keeps the six networks fair (Jain >= 0.99); measured Jain "
      << points[1].record.jain;
}

TEST(FigureClaims, Figs25To27DcnBeatsWithoutBeatsZigbeeInEveryCase) {
  // Points run Case by Case (I, II, III), each as ZigBee, w/o DCN, DCN.
  const std::vector<Point> points = run_example("fig25_27_cases");
  ASSERT_EQ(points.size(), 9u);
  std::vector<double> dcn_gain;  // DCN over w/o DCN, per Case
  for (std::size_t p = 0; p < points.size(); p += 3) {
    const double zigbee = points[p].record.overall_pps;
    const double without = points[p + 1].record.overall_pps;
    const double with = points[p + 2].record.overall_pps;
    const std::string& topology = points[p].params.topology;
    EXPECT_GT(with, without) << "Figs. 25-27 claim: DCN beats w/o DCN in every Case; "
                             << topology << " measured " << with << " vs " << without
                             << " pkt/s";
    EXPECT_GT(without, zigbee) << "Figs. 25-27 claim: w/o DCN beats ZigBee in every Case; "
                               << topology << " measured " << without << " vs " << zigbee
                               << " pkt/s";
    dcn_gain.push_back(with / without - 1.0);
  }
  EXPECT_GT(dcn_gain.front(), dcn_gain.back())
      << "Figs. 25/27 claim: DCN's gain over w/o DCN is larger in Case I than in Case III "
         "(weak co-channel RSSI); measured "
      << 100.0 * dcn_gain.front() << " % vs " << 100.0 * dcn_gain.back() << " %";
}

TEST(FigureClaims, Fig30GainRisesWithBandwidth) {
  // Points pair up as (channels, fixed), (channels, dcn).
  const std::vector<Point> points = run_example("fig30_wider_band");
  ASSERT_EQ(points.size(), 6u);
  std::vector<std::pair<int, double>> gains;  // (channels, DCN gain)
  for (std::size_t p = 0; p < points.size(); p += 2) {
    gains.emplace_back(points[p].params.channels, gain(points[p], points[p + 1]));
  }
  std::sort(gains.begin(), gains.end());
  for (std::size_t i = 1; i < gains.size(); ++i) {
    EXPECT_GT(gains[i].second, gains[i - 1].second)
        << "Fig. 30 claim: DCN's gain rises strictly with channel count; measured "
        << 100.0 * gains[i].second << " % at " << gains[i].first << " channels vs "
        << 100.0 * gains[i - 1].second << " % at " << gains[i - 1].first;
  }
}

}  // namespace
}  // namespace nomc::exp
