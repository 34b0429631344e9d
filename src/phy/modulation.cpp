#include "phy/modulation.hpp"

#include <cassert>
#include <cmath>

namespace nomc::phy {
namespace {

[[nodiscard]] double db_to_linear(double db) { return std::pow(10.0, db / 10.0); }

}  // namespace

double oqpsk_ber(double sinr_db) {
  // BER = (8/15) · (1/16) · Σ_{k=2}^{16} (−1)^k · C(16,k) · exp(20·γ·(1/k − 1))
  // with γ the linear SINR. Below −12 dB the alternating sum loses precision;
  // the channel is unusable there anyway, so clamp to the coin-flip rate.
  if (sinr_db < -12.0) return 0.5;
  const double gamma = db_to_linear(sinr_db);

  static constexpr double kBinom16[17] = {1,    16,   120,  560,  1820, 4368,
                                          8008, 11440, 12870, 11440, 8008, 4368,
                                          1820, 560,  120,  16,   1};
  double sum = 0.0;
  for (int k = 2; k <= 16; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    const double term = sign * kBinom16[k] * std::exp(20.0 * gamma * (1.0 / k - 1.0));
    // The exponent falls with k, so once a term underflows to exactly zero
    // every later one does too: stopping here adds nothing but ±0.0 less.
    // Above ~18.7 dB even k = 2 underflows and the sum is one exp.
    if (term == 0.0) break;
    sum += term;
  }
  const double ber = (8.0 / 15.0) * (1.0 / 16.0) * sum;
  if (ber < 0.0) return 0.0;
  if (ber > 0.5) return 0.5;
  return ber;
}

double packet_error_rate(double ber, int bits) {
  assert(bits >= 0);
  if (ber <= 0.0 || bits == 0) return 0.0;
  if (ber >= 0.5) return 1.0;
  // 1 − (1 − p)^n computed in log space for small p stability.
  return -std::expm1(static_cast<double>(bits) * std::log1p(-ber));
}

double sinr_for_per50(int bits) {
  assert(bits > 0);
  // Bisection over the monotone PER(SINR) curve.
  double lo = -12.0;
  double hi = 10.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (packet_error_rate(oqpsk_ber(mid), bits) > 0.5) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double ber(BerModel model, double sinr_db) {
  // Both models are exactly 0.0 here (modulation_test pins it), so skip
  // their pow and exp.
  if (sinr_db >= kErrorFreeSinrDb) return 0.0;
  switch (model) {
    case BerModel::kOqpsk154:
      return oqpsk_ber(sinr_db);
    case BerModel::kDsss11b:
      return dsss_dbpsk_ber(sinr_db);
  }
  return 0.5;  // unreachable
}

double dsss_dbpsk_ber(double sinr_db) {
  // DBPSK: BER = 0.5·exp(−Eb/N0), with the 11-chip Barker processing gain
  // (10.4 dB) folded into Eb/N0 from the wideband SINR.
  const double eb_n0 = db_to_linear(sinr_db + 10.4);
  const double ber = 0.5 * std::exp(-eb_n0);
  return ber > 0.5 ? 0.5 : ber;
}

}  // namespace nomc::phy
