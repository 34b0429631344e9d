#include "phy/modulation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace nomc::phy {
namespace {

TEST(OqpskBer, BoundsRespected) {
  for (double sinr = -30.0; sinr <= 30.0; sinr += 0.5) {
    const double b = oqpsk_ber(sinr);
    ASSERT_GE(b, 0.0) << "at " << sinr;
    ASSERT_LE(b, 0.5) << "at " << sinr;
  }
}

TEST(OqpskBer, HopelessBelowMinusTwelve) {
  EXPECT_EQ(oqpsk_ber(-20.0), 0.5);
  EXPECT_EQ(oqpsk_ber(-12.1), 0.5);
}

TEST(OqpskBer, CleanAtHighSinr) {
  EXPECT_LT(oqpsk_ber(10.0), 1e-15);
  EXPECT_EQ(oqpsk_ber(30.0), 0.0);
}

TEST(OqpskBer, CliffRegion) {
  // The 802.15.4 reception cliff sits around 0 dB: a few dB swing the BER
  // across many orders of magnitude.
  EXPECT_GT(oqpsk_ber(-4.0), 1e-2);
  EXPECT_LT(oqpsk_ber(3.0), 1e-4);
}

TEST(OqpskBer, StrictlyDecreasingThroughCliff) {
  double prev = 1.0;
  for (double sinr = -10.0; sinr <= 6.0; sinr += 0.25) {
    const double cur = oqpsk_ber(sinr);
    ASSERT_LT(cur, prev) << "at " << sinr;
    prev = cur;
  }
}

/// The O-QPSK BER as first written: all fifteen terms, always. Kept verbatim
/// as the oracle the production early exit must match bit for bit.
double reference_oqpsk_ber(double sinr_db) {
  if (sinr_db < -12.0) return 0.5;
  const double gamma = std::pow(10.0, sinr_db / 10.0);
  static constexpr double kBinom16[17] = {1,    16,   120,  560,  1820, 4368,
                                          8008, 11440, 12870, 11440, 8008, 4368,
                                          1820, 560,  120,  16,   1};
  double sum = 0.0;
  for (int k = 2; k <= 16; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    sum += sign * kBinom16[k] * std::exp(20.0 * gamma * (1.0 / k - 1.0));
  }
  const double ber = (8.0 / 15.0) * (1.0 / 16.0) * sum;
  if (ber < 0.0) return 0.0;
  if (ber > 0.5) return 0.5;
  return ber;
}

void expect_bit_identical_ber(double sinr_db) {
  ASSERT_EQ(std::bit_cast<std::uint64_t>(oqpsk_ber(sinr_db)),
            std::bit_cast<std::uint64_t>(reference_oqpsk_ber(sinr_db)))
      << "oqpsk_ber drifted from the full sum at " << sinr_db << " dB";
}

TEST(OqpskBer, BitIdenticalToFullSumAcrossRange) {
  // -12 .. 80 dB in 1e-3 dB steps (indexed, so no accumulated drift).
  for (int i = 0; i <= 92'000; ++i) expect_bit_identical_ber(-12.0 + i * 1e-3);
}

TEST(OqpskBer, BitIdenticalToFullSumAroundUnderflowEdges) {
  // Term k underflows once 20·γ·(1 − 1/k) passes ~745.13 (exp's subnormal
  // limit): k = 16 near 16.0 dB through k = 2 near 18.7 dB, where the sum
  // collapses to a single exp. Sweep that band densely, then walk every
  // term's edge ulp by ulp.
  for (int i = 0; i <= 300'000; ++i) expect_bit_identical_ber(15.9 + i * 1e-5);
  for (int k = 2; k <= 16; ++k) {
    const double gamma_edge = 745.1332191019412 / (20.0 * (1.0 - 1.0 / k));
    const double edge_db = 10.0 * std::log10(gamma_edge);
    double down = edge_db;
    double up = edge_db;
    for (int step = 0; step < 2'000; ++step) {
      expect_bit_identical_ber(down);
      expect_bit_identical_ber(up);
      down = std::nextafter(down, -INFINITY);
      up = std::nextafter(up, INFINITY);
    }
  }
}

TEST(PacketErrorRate, Bounds) {
  EXPECT_EQ(packet_error_rate(0.0, 800), 0.0);
  EXPECT_EQ(packet_error_rate(0.5, 800), 1.0);
  EXPECT_EQ(packet_error_rate(1e-3, 0), 0.0);
}

TEST(PacketErrorRate, MatchesClosedForm) {
  // 1 - (1-p)^n for moderate p.
  EXPECT_NEAR(packet_error_rate(0.01, 100), 1.0 - std::pow(0.99, 100), 1e-12);
}

TEST(PacketErrorRate, SmallPStable) {
  // n*p approximation must hold for tiny p (no catastrophic cancellation).
  EXPECT_NEAR(packet_error_rate(1e-9, 1000), 1e-6, 1e-9);
}

TEST(PacketErrorRate, MonotoneInBits) {
  double prev = 0.0;
  for (int bits = 100; bits <= 2000; bits += 100) {
    const double per = packet_error_rate(1e-3, bits);
    ASSERT_GT(per, prev);
    prev = per;
  }
}

TEST(SinrForPer50, BracketsCliff) {
  const double cliff = sinr_for_per50(800);
  EXPECT_GT(cliff, -6.0);
  EXPECT_LT(cliff, 3.0);
  // At the cliff, PER is ~50 %.
  EXPECT_NEAR(packet_error_rate(oqpsk_ber(cliff), 800), 0.5, 0.01);
}

TEST(SinrForPer50, LongerPacketsFailEarlier) {
  EXPECT_GT(sinr_for_per50(2000), sinr_for_per50(200));
}

TEST(Dsss11b, BoundsAndShape) {
  EXPECT_NEAR(dsss_dbpsk_ber(-40.0), 0.5, 1e-3);
  EXPECT_LT(dsss_dbpsk_ber(5.0), 1e-6);
  double prev = 1.0;
  for (double sinr = -20.0; sinr <= 10.0; sinr += 1.0) {
    const double cur = dsss_dbpsk_ber(sinr);
    ASSERT_LE(cur, prev);
    prev = cur;
  }
}

TEST(BerDispatch, SelectsModel) {
  EXPECT_EQ(ber(BerModel::kOqpsk154, 1.0), oqpsk_ber(1.0));
  EXPECT_EQ(ber(BerModel::kDsss11b, 1.0), dsss_dbpsk_ber(1.0));
  EXPECT_NE(ber(BerModel::kOqpsk154, 1.0), ber(BerModel::kDsss11b, 1.0));
}

/// Property sweep: PER is monotone non-increasing in SINR for both models
/// and several packet sizes.
struct PerCase {
  BerModel model;
  int bits;
};

class PerMonotoneSweep : public ::testing::TestWithParam<PerCase> {};

TEST_P(PerMonotoneSweep, NonIncreasingInSinr) {
  const auto [model, bits] = GetParam();
  double prev = 1.1;
  for (double sinr = -15.0; sinr <= 15.0; sinr += 0.5) {
    const double per = packet_error_rate(ber(model, sinr), bits);
    ASSERT_LE(per, prev + 1e-12) << "at " << sinr;
    prev = per;
  }
}

INSTANTIATE_TEST_SUITE_P(ModelsAndSizes, PerMonotoneSweep,
                         ::testing::Values(PerCase{BerModel::kOqpsk154, 200},
                                           PerCase{BerModel::kOqpsk154, 800},
                                           PerCase{BerModel::kOqpsk154, 2000},
                                           PerCase{BerModel::kDsss11b, 800}));

}  // namespace
}  // namespace nomc::phy
