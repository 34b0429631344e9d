// Tunables of the DCN scheme (paper §V).
#pragma once

#include "phy/units.hpp"
#include "sim/time.hpp"

namespace nomc::dcn {

struct DcnConfig {
  /// Initializing-phase length T_I (paper: 1 s).
  sim::SimTime t_init = sim::SimTime::seconds(1.0);

  /// In-channel power sensing period during the initializing phase
  /// (paper: every millisecond).
  sim::SimTime init_sense_period = sim::SimTime::milliseconds(1);

  /// Updating-phase window T_U (paper: 3 s): Case II raises the threshold to
  /// the minimum co-channel RSSI seen in the last T_U when Case I has been
  /// quiet for that long.
  sim::SimTime t_update = sim::SimTime::seconds(3.0);

  /// The threshold is kept this far below the minimum co-channel RSSI
  /// (Eq. 1 demands strictly "smaller than"; the margin also absorbs RSSI
  /// measurement noise). Ablated by the `dcn-margin` sweep of
  /// examples/campaigns/table1_fairness.campaign.
  phy::Db safety_margin{2.0};

  /// Threshold used before and during the initializing phase — the
  /// conservative ZigBee default, per §V-B ("determined cautiously").
  phy::Dbm conservative_threshold{-77.0};

  /// Hard clamp so a pathological RSSI record cannot disable carrier sensing
  /// entirely or deadlock it: a threshold at or below the noise floor would
  /// read "busy" forever (the mote always senses at least thermal noise), so
  /// the lower clamp sits a few dB above it. This matters when a co-channel
  /// partner is barely in radio range (the paper's Case III weakness).
  phy::Dbm min_threshold{-91.0};
  phy::Dbm max_threshold{-20.0};
};

}  // namespace nomc::dcn
