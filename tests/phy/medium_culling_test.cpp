// Spatial interference culling: the determinism contract.
//
// Culling is only allowed to make the medium faster, never different, at
// paper scale: the influence radius is derived so that a deployment smaller
// than the radius culls nothing, and the candidate-set summation replays
// begin_tx order. These tests drive a culled and an exhaustive medium
// through identical histories and require every query to agree BIT FOR BIT
// (EXPECT_EQ on doubles, no tolerance) — the property that keeps the golden
// stores byte-stable. City-scale tests then pin that far-field frames really
// are dropped, and that motion keeps the caches and the grid coherent.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "phy/medium.hpp"
#include "sim/random.hpp"

namespace nomc::phy {
namespace {

constexpr Mhz kChannels[] = {Mhz{2405.0}, Mhz{2425.0}, Mhz{2455.0}};

MediumConfig config_with(bool culling, double sigma = 2.5) {
  MediumConfig config;
  config.shadowing_sigma_db = sigma;
  config.culling.enabled = culling;
  return config;
}

/// Two mediums driven through one history. Frame ids are allocated from the
/// culled medium and reused verbatim on the exhaustive one, so shadowing
/// draws (hashed from the id) are comparable.
struct TwinMediums {
  explicit TwinMediums(double sigma = 2.5)
      : culled{config_with(true, sigma)}, exhaustive{config_with(false, sigma)} {}

  NodeId add_node(Vec2 at) {
    const NodeId id = culled.add_node(at);
    EXPECT_EQ(exhaustive.add_node(at), id);
    return id;
  }

  Frame begin(NodeId src, Mhz channel, Dbm power = Dbm{0.0}) {
    Frame frame;
    frame.id = culled.allocate_frame_id();
    frame.src = src;
    frame.channel = channel;
    frame.tx_power = power;
    frame.psdu_bytes = 100;
    culled.begin_tx(frame);
    exhaustive.begin_tx(frame);
    return frame;
  }

  void end(FrameId id) {
    culled.end_tx(id);
    exhaustive.end_tx(id);
  }

  void move(NodeId node, Vec2 to) {
    culled.set_position(node, to);
    exhaustive.set_position(node, to);
  }

  /// Every query the stack above issues, on every (node, channel) pair,
  /// compared with zero tolerance.
  void expect_identical_views(const std::vector<Frame>& on_air) {
    for (NodeId node = 0; node < culled.node_count(); ++node) {
      for (const Mhz channel : kChannels) {
        ASSERT_EQ(culled.sense_energy(node, channel).value,
                  exhaustive.sense_energy(node, channel).value)
            << "sense_energy diverged at node " << node;
        ASSERT_EQ(culled.interference(node, channel, 0).value,
                  exhaustive.interference(node, channel, 0).value)
            << "interference diverged at node " << node;
        ASSERT_EQ(culled.carrier_present(node, channel, Dbm{-77.0}),
                  exhaustive.carrier_present(node, channel, Dbm{-77.0}));
        const Medium::Overlap a = culled.overlap(node, channel, 0);
        const Medium::Overlap b = exhaustive.overlap(node, channel, 0);
        ASSERT_EQ(a.co, b.co);
        ASSERT_EQ(a.inter, b.inter);
      }
      for (const Frame& frame : on_air) {
        ASSERT_EQ(culled.rss(frame, node).value, exhaustive.rss(frame, node).value);
        ASSERT_EQ(culled.interference(node, frame.channel, frame.id).value,
                  exhaustive.interference(node, frame.channel, frame.id).value);
      }
    }
  }

  Medium culled;
  Medium exhaustive;
};

TEST(MediumCulling, PaperScaleIsBitIdenticalToExhaustive) {
  // 30 nodes across ~40 m — the paper's testbed scale, far inside the
  // influence radius, so the culled medium must reproduce the exhaustive one
  // exactly through a begin/end churn with mixed channels and powers.
  TwinMediums twins;
  sim::SplitMix64 mix{2026};
  auto coord = [&mix] { return static_cast<double>(mix.next() % 4000) / 100.0; };
  std::vector<NodeId> nodes;
  for (int i = 0; i < 30; ++i) nodes.push_back(twins.add_node({coord(), coord()}));

  std::vector<Frame> on_air;
  for (int round = 0; round < 8; ++round) {
    for (int k = 0; k < 4; ++k) {
      const NodeId src = nodes[mix.next() % nodes.size()];
      const Mhz channel = kChannels[mix.next() % 3];
      const Dbm power{static_cast<double>(mix.next() % 11) - 10.0};  // -10..0 dBm
      on_air.push_back(twins.begin(src, channel, power));
    }
    twins.expect_identical_views(on_air);
    // End a prefix: exercises slot and frame-term recycling while
    // later frames keep their begin order.
    for (int k = 0; k < 2 && !on_air.empty(); ++k) {
      twins.end(on_air.front().id);
      on_air.erase(on_air.begin());
    }
    twins.expect_identical_views(on_air);
  }
  EXPECT_TRUE(twins.culled.culling_enabled());
  EXPECT_FALSE(twins.exhaustive.culling_enabled());
}

TEST(MediumCulling, MotionInvalidationMatchesFreshlyBuiltMedium) {
  // The satellite contract: after a node moves, every query against the
  // sparse-cached medium must equal a medium constructed from scratch at the
  // post-move positions — bit for bit. A stale cache entry would diverge.
  TwinMediums twins;
  const NodeId a = twins.add_node({0.0, 0.0});
  const NodeId b = twins.add_node({10.0, 0.0});
  const NodeId c = twins.add_node({0.0, 15.0});
  std::vector<Frame> on_air;
  on_air.push_back(twins.begin(a, kChannels[0]));
  on_air.push_back(twins.begin(b, kChannels[1], Dbm{-5.0}));

  // Warm every cache, then move nodes (including an active transmitter).
  twins.expect_identical_views(on_air);
  twins.move(b, {3.0, 4.0});
  twins.move(c, {1.0, 1.0});
  twins.expect_identical_views(on_air);

  // Fresh medium at the final geometry: replay the same frames (same ids)
  // so shadowing draws match, and require the moved mediums to agree with a
  // cache that never saw the old positions.
  Medium fresh{config_with(false)};
  EXPECT_EQ(fresh.add_node({0.0, 0.0}), a);
  EXPECT_EQ(fresh.add_node({3.0, 4.0}), b);
  EXPECT_EQ(fresh.add_node({1.0, 1.0}), c);
  for (const Frame& frame : on_air) fresh.begin_tx(frame);
  for (NodeId node = 0; node < fresh.node_count(); ++node) {
    for (const Mhz channel : kChannels) {
      ASSERT_EQ(twins.culled.sense_energy(node, channel).value,
                fresh.sense_energy(node, channel).value);
    }
    for (const Frame& frame : on_air) {
      ASSERT_EQ(twins.culled.rss(frame, node).value, fresh.rss(frame, node).value);
    }
  }
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Every query a radio or MAC issues at every node, on every channel and
/// about every frame on the air, compared bitwise between two mediums.
void expect_bitwise_same_answers(const Medium& warm, const Medium& fresh,
                                 const std::vector<Frame>& on_air) {
  ASSERT_EQ(warm.node_count(), fresh.node_count());
  for (NodeId node = 0; node < warm.node_count(); ++node) {
    for (const Mhz channel : kChannels) {
      ASSERT_EQ(bits(warm.sense_energy(node, channel).value),
                bits(fresh.sense_energy(node, channel).value))
          << "sense_energy at node " << node << " on " << channel.value;
      ASSERT_EQ(warm.carrier_present(node, channel, Dbm{-77.0}),
                fresh.carrier_present(node, channel, Dbm{-77.0}));
      for (const Frame& frame : on_air) {
        ASSERT_EQ(bits(warm.interference(node, channel, frame.id).value),
                  bits(fresh.interference(node, channel, frame.id).value))
            << "interference at node " << node << " excluding frame " << frame.id;
        const Medium::Overlap a = warm.overlap(node, channel, frame.id);
        const Medium::Overlap b = fresh.overlap(node, channel, frame.id);
        ASSERT_EQ(a.co, b.co);
        ASSERT_EQ(a.inter, b.inter);
        ASSERT_EQ(warm.inter_channel_audible(frame, node, channel),
                  fresh.inter_channel_audible(frame, node, channel));
      }
    }
    for (const Frame& frame : on_air) {
      ASSERT_EQ(bits(warm.rss(frame, node).value), bits(fresh.rss(frame, node).value))
          << "rss of frame " << frame.id << " at node " << node;
    }
  }
}

TEST(MediumCulling, FrameTermMemoMatchesFreshlyBuiltMediumAfterMidFrameChanges) {
  // The per-(frame, rx) terms are computed once per frame's time on the air.
  // Warm them with interleaved queries, then change what they depend on
  // mid-frame — the receiver moves, an in-flight transmitter moves, a node
  // is asked about a second channel — and require every answer to equal a
  // medium built from scratch at the final geometry, bit for bit. The mix
  // includes a wideband frame (emission mask floors the rejection) and a
  // foreign frame modelled from its src_pos snapshot.
  const ChannelRejection wide_mask{std::vector<ChannelRejection::Anchor>{
      {Mhz{0.0}, Db{0.0}}, {Mhz{8.0}, Db{0.0}}, {Mhz{11.0}, Db{20.0}}, {Mhz{30.0}, Db{45.0}}}};
  constexpr NodeId kForeignSrc = 500;  // registered with neither medium

  Medium warm{config_with(true)};
  const NodeId a = warm.add_node({0.0, 0.0});
  const NodeId b = warm.add_node({10.0, 0.0});
  const NodeId c = warm.add_node({0.0, 15.0});
  const NodeId d = warm.add_node({6.0, 6.0});
  ASSERT_FALSE(warm.owns(kForeignSrc));

  auto make = [&warm](NodeId src, Mhz channel, Dbm power) {
    Frame frame;
    frame.id = warm.allocate_frame_id();
    frame.src = src;
    frame.channel = channel;
    frame.tx_power = power;
    frame.psdu_bytes = 100;
    return frame;
  };
  Frame to_c = make(a, kChannels[0], Dbm{0.0});  // c decodes this one
  Frame wideband = make(b, kChannels[1], Dbm{-3.0});
  wideband.emission = &wide_mask;
  Frame foreign = make(kForeignSrc, kChannels[2], Dbm{-2.0});
  foreign.src_pos = {20.0, 5.0};
  const Frame late = make(d, kChannels[0], Dbm{-5.0});
  const Frame reuse = make(d, kChannels[2], Dbm{-1.0});  // claims late's recycled slot

  // The begin/end history, replayed verbatim on the fresh medium.
  struct Step {
    bool begin;
    Frame frame;
  };
  const std::vector<Step> history = {
      {true, to_c}, {true, wideband}, {true, foreign}, {true, late}, {false, late}, {true, reuse}};

  auto warm_up = [&warm, &c](const std::vector<Frame>& on_air) {
    for (NodeId node = 0; node < warm.node_count(); ++node) {
      (void)warm.sense_energy(node, kChannels[0]);
      for (const Frame& frame : on_air) {
        (void)warm.rss(frame, node);
        (void)warm.interference(node, kChannels[0], frame.id);
        (void)warm.overlap(node, kChannels[0], frame.id);
      }
    }
    (void)warm.sense_energy(c, kChannels[0]);
  };
  std::vector<Frame> on_air;
  for (const Step& step : history) {
    if (step.begin) {
      warm.begin_tx(step.frame);
      on_air.push_back(step.frame);
    } else {
      warm.end_tx(step.frame.id);
      std::erase_if(on_air, [&step](const Frame& f) { return f.id == step.frame.id; });
    }
    warm_up(on_air);
  }

  // Mid-frame changes: the receiver moves, an in-flight transmitter (the
  // wideband one) moves, and the receiver is asked about a second channel.
  warm.set_position(c, {2.0, 3.0});
  warm.set_position(b, {-4.0, 7.0});
  (void)warm.sense_energy(c, kChannels[1]);
  (void)warm.interference(c, kChannels[1], to_c.id);

  Medium fresh{config_with(true)};
  EXPECT_EQ(fresh.add_node({0.0, 0.0}), a);
  EXPECT_EQ(fresh.add_node({-4.0, 7.0}), b);
  EXPECT_EQ(fresh.add_node({2.0, 3.0}), c);
  EXPECT_EQ(fresh.add_node({6.0, 6.0}), d);
  for (const Step& step : history) {
    if (step.begin) {
      fresh.begin_tx(step.frame);
    } else {
      fresh.end_tx(step.frame.id);
    }
  }
  expect_bitwise_same_answers(warm, fresh, on_air);

  // The changes must be visible, not merely consistent: the moved frame and
  // the moved receiver really read differently than before.
  Medium before{config_with(true)};
  before.add_node({0.0, 0.0});
  before.add_node({10.0, 0.0});
  before.add_node({0.0, 15.0});
  before.add_node({6.0, 6.0});
  for (const Frame& frame : on_air) before.begin_tx(frame);
  EXPECT_NE(bits(before.rss(to_c, c).value), bits(warm.rss(to_c, c).value));
  EXPECT_NE(bits(before.rss(wideband, a).value), bits(warm.rss(wideband, a).value));
}

TEST(MediumCulling, InfluenceRadiusCoversPaperScaleAndBoundsCityScale) {
  Medium medium{config_with(true)};
  // sigma 2.5, cap 6 sigma, floor −105 dBm: a 0 dBm sender must be heard
  // kilometres out (covers any paper-scale deployment) but not across a city.
  const double r = medium.influence_radius_m(Dbm{0.0});
  EXPECT_GT(r, 1000.0);
  EXPECT_LT(r, 50'000.0);
  // Quieter senders reach less far; the radius is monotone in tx power.
  EXPECT_LT(medium.influence_radius_m(Dbm{-10.0}), r);
}

TEST(MediumCulling, FarFieldFrameIsInvisibleAndBoundedBelowFloor) {
  Medium culled{config_with(true, /*sigma=*/0.0)};
  Medium exhaustive{config_with(false, /*sigma=*/0.0)};
  const NodeId rx_c = culled.add_node({0.0, 0.0});
  const NodeId far_c = culled.add_node({culled.influence_radius_m(Dbm{0.0}) * 3.0, 0.0});
  exhaustive.add_node({0.0, 0.0});
  exhaustive.add_node({culled.influence_radius_m(Dbm{0.0}) * 3.0, 0.0});

  Frame frame;
  frame.id = culled.allocate_frame_id();
  frame.src = far_c;
  frame.channel = kChannels[0];
  frame.tx_power = Dbm{0.0};
  frame.psdu_bytes = 100;
  culled.begin_tx(frame);
  exhaustive.begin_tx(frame);

  // Culled: the far frame contributes nothing — the sensor reads exactly the
  // noise floor, the definition of "unobservable".
  const double culled_db = culled.sense_energy(rx_c, kChannels[0]).value;
  EXPECT_EQ(culled_db, culled.noise_floor().value);
  // Exhaustive: the contribution exists but sits below the cull margin, so
  // the error the culled path accepted is bounded as documented.
  const double exhaustive_db = exhaustive.sense_energy(rx_c, kChannels[0]).value;
  EXPECT_GT(exhaustive_db, culled_db);
  EXPECT_LT(exhaustive_db - culled_db, 0.5);  // well under margin's 10·log10(1.1)

  // A sub-floor carrier-sense threshold must still hear the far carrier:
  // that query bypasses the grid (exhaustive fallback).
  EXPECT_TRUE(culled.carrier_present(rx_c, kChannels[0], Dbm{-200.0}));
  EXPECT_FALSE(culled.carrier_present(rx_c, kChannels[0], Dbm{-77.0}));
}

TEST(MediumCulling, MovingActiveTransmitterRebucketsItsFrames) {
  Medium medium{config_with(true, /*sigma=*/0.0)};
  const double r = medium.influence_radius_m(Dbm{0.0});
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId sensor = medium.add_node({0.0, 1.0});

  Frame frame;
  frame.id = medium.allocate_frame_id();
  frame.src = tx;
  frame.channel = kChannels[0];
  frame.tx_power = Dbm{0.0};
  frame.psdu_bytes = 100;
  medium.begin_tx(frame);
  EXPECT_NEAR(medium.sense_energy(sensor, kChannels[0]).value, -40.0, 0.01);

  // Carry the in-flight frame out of range: the grid must re-bucket it and
  // the loss cache must forget the old geometry.
  medium.set_position(tx, {r * 3.0, 0.0});
  EXPECT_EQ(medium.sense_energy(sensor, kChannels[0]).value, medium.noise_floor().value);

  // And back: the frame reappears at full strength (no stale cache, no lost
  // grid entry), then ends cleanly from its re-bucketed cell.
  medium.set_position(tx, {0.0, 0.0});
  EXPECT_NEAR(medium.sense_energy(sensor, kChannels[0]).value, -40.0, 0.01);
  medium.end_tx(frame.id);
  EXPECT_EQ(medium.active_count(), 0u);
  EXPECT_EQ(medium.sense_energy(sensor, kChannels[0]).value, medium.noise_floor().value);
}

TEST(MediumCulling, RssAgreesBeforeAndAfterShadowCacheEviction) {
  // end_tx releases the frame's slot and its memoized terms; a late query
  // (the receiver finalizing its reception) must recompute the identical
  // value.
  Medium medium{config_with(true)};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({5.0, 0.0});
  Frame frame;
  frame.id = medium.allocate_frame_id();
  frame.src = tx;
  frame.channel = kChannels[0];
  frame.tx_power = Dbm{0.0};
  frame.psdu_bytes = 100;
  medium.begin_tx(frame);
  const double during = medium.rss(frame, rx).value;
  medium.end_tx(frame.id);
  EXPECT_EQ(medium.rss(frame, rx).value, during);
}

}  // namespace
}  // namespace nomc::phy
