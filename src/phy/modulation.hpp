// Modulation/demodulation error models.
//
// 802.15.4 2.4 GHz O-QPSK with DSSS: the standard analytic BER model
// (16-ary quasi-orthogonal symbols, as used by Zuniga & Krishnamachari and
// the ns-2/ns-3 802.15.4 error models). The curve has the steep cliff the
// paper's testbed shows: essentially error-free above ~3 dB SINR, hopeless
// below ~-3 dB.
#pragma once

namespace nomc::phy {

/// Bit error rate of 802.15.4 O-QPSK DSSS at the given SINR (dB).
[[nodiscard]] double oqpsk_ber(double sinr_db);

/// Packet error rate for `bits` independent bit decisions at rate `ber`.
[[nodiscard]] double packet_error_rate(double ber, int bits);

/// SINR (dB) at which a packet of `bits` has 50 % PER — the centre of the
/// reception cliff, used by tests and calibration.
[[nodiscard]] double sinr_for_per50(int bits);

/// Bit error rate of 802.11b 1 Mb/s DBPSK with 11-chip Barker spreading,
/// used only by the `wifi` contrast model (paper Fig. 2).
[[nodiscard]] double dsss_dbpsk_ber(double sinr_db);

/// Demodulator selector for Radio: the 802.15.4 O-QPSK model, or the
/// 802.11b DBPSK model used by the Fig. 2 contrast experiment.
enum class BerModel { kOqpsk154, kDsss11b };

/// SINR (dB) from which both BER models return exactly 0.0. Each model's
/// leading term is an exp that underflows to +0.0 once its argument drops
/// below about -745.13 (exp's subnormal limit):
///   * O-QPSK: exp(-10·γ) at k = 2, so γ > 74.51, i.e. SINR > 18.72 dB;
///   * 802.11b DBPSK: exp(-10^((SINR + 10.4)/10)), i.e. SINR > 18.33 dB.
/// The threshold sits >= 1.28 dB above both, far beyond any rounding in the
/// dBm/mW conversions, so a receiver whose interference bound proves this
/// SINR can skip the segment's BER and its (draw-free) error draw.
inline constexpr double kErrorFreeSinrDb = 20.0;

/// The selected model's BER; exactly 0.0 from kErrorFreeSinrDb on, without
/// evaluating the model.
[[nodiscard]] double ber(BerModel model, double sinr_db);

}  // namespace nomc::phy
