#include "phy/rejection.hpp"

#include <cassert>

namespace nomc::phy {

// Calibrated anchors — do not retune casually; the integration test
// calibration_test.cpp and every figure bench depend on them.
ChannelRejection ChannelRejection::cc2420_decode() {
  return ChannelRejection{std::vector<Anchor>{
      {Mhz{0.0}, Db{0.0}},
      {Mhz{1.0}, Db{19.0}},
      {Mhz{2.0}, Db{25.5}},
      {Mhz{3.0}, Db{30.5}},
      {Mhz{4.0}, Db{34.0}},
      {Mhz{5.0}, Db{37.5}},
      {Mhz{6.0}, Db{41.0}},
      {Mhz{7.0}, Db{44.0}},
      {Mhz{9.0}, Db{52.0}},
      {Mhz{15.0}, Db{60.0}},
  }};
}

ChannelRejection ChannelRejection::cc2420_sensing() {
  return ChannelRejection{std::vector<Anchor>{
      {Mhz{0.0}, Db{0.0}},
      {Mhz{1.0}, Db{6.0}},
      {Mhz{2.0}, Db{14.0}},
      {Mhz{3.0}, Db{30.0}},
      {Mhz{4.0}, Db{33.0}},
      {Mhz{5.0}, Db{36.0}},
      {Mhz{6.0}, Db{40.0}},
      {Mhz{7.0}, Db{43.0}},
      {Mhz{9.0}, Db{48.0}},
      {Mhz{15.0}, Db{58.0}},
  }};
}

ChannelRejection::ChannelRejection() : ChannelRejection(cc2420_decode()) {}

ChannelRejection::ChannelRejection(std::vector<Anchor> anchors) : anchors_{std::move(anchors)} {
  assert(!anchors_.empty());
  assert(anchors_.front().offset.value == 0.0);
  for (std::size_t i = 1; i < anchors_.size(); ++i) {
    assert(anchors_[i].offset > anchors_[i - 1].offset);
    assert(anchors_[i].attenuation >= anchors_[i - 1].attenuation);
  }
}

Db ChannelRejection::attenuation(Mhz delta_f) const {
  const double d = delta_f.value < 0.0 ? -delta_f.value : delta_f.value;
  if (d >= anchors_.back().offset.value) return anchors_.back().attenuation;
  // Linear scan over a tiny table. Per-term callers must not reach it: at
  // paper scale that is tens of millions of calls, so phy::Medium tabulates
  // its two curves per channel distance.
  for (std::size_t i = 1; i < anchors_.size(); ++i) {
    if (d <= anchors_[i].offset.value) {
      const auto& lo = anchors_[i - 1];
      const auto& hi = anchors_[i];
      const double t = (d - lo.offset.value) / (hi.offset.value - lo.offset.value);
      return Db{lo.attenuation.value + t * (hi.attenuation.value - lo.attenuation.value)};
    }
  }
  return anchors_.back().attenuation;
}

}  // namespace nomc::phy
