#include "phy/medium.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace nomc::phy {
namespace {

MediumConfig quiet_config() {
  MediumConfig config;
  config.shadowing_sigma_db = 0.0;  // deterministic RSS for exact assertions
  return config;
}

Frame make_frame(Medium& medium, NodeId src, Mhz channel, Dbm power = Dbm{0.0}) {
  Frame frame;
  frame.id = medium.allocate_frame_id();
  frame.src = src;
  frame.channel = channel;
  frame.tx_power = power;
  frame.psdu_bytes = 100;
  return frame;
}

TEST(Medium, NodeRegistration) {
  Medium medium{quiet_config()};
  const NodeId a = medium.add_node({0.0, 0.0});
  const NodeId b = medium.add_node({3.0, 4.0});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(medium.node_count(), 2u);
  EXPECT_EQ(medium.position(b), (Vec2{3.0, 4.0}));
}

TEST(Medium, NodesAndListenersJoinOnlyBetweenFrames) {
  // The medium's covered sets and frame lists assume a static geometry
  // while frames are on the air: joining mid-flight throws, in every build
  // type, and leaves the medium as it was.
  struct Counting final : MediumListener {
    void on_tx_start(const Frame&) override { ++calls; }
    void on_tx_end(const Frame&) override { ++calls; }
    int calls = 0;
  } early, late;
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  medium.add_listener(&early, tx);
  const Frame first = make_frame(medium, tx, Mhz{2460.0});
  medium.begin_tx(first);
  EXPECT_THROW((void)medium.add_node({1.0, 0.0}), std::logic_error);
  EXPECT_THROW(medium.add_listener(&late, tx), std::logic_error);
  EXPECT_EQ(medium.node_count(), 1u);
  medium.end_tx(first.id);
  EXPECT_EQ(early.calls, 2);
  EXPECT_EQ(late.calls, 0);

  // Between frames both succeed, and the new listener hears the next frame.
  const NodeId rx = medium.add_node({1.0, 0.0});
  EXPECT_EQ(rx, 1u);
  medium.add_listener(&late, rx);
  const Frame second = make_frame(medium, tx, Mhz{2460.0});
  medium.begin_tx(second);
  // Removing a listener stays legal mid-flight and stops its callbacks.
  medium.remove_listener(&early);
  medium.end_tx(second.id);
  EXPECT_EQ(early.calls, 3);
  EXPECT_EQ(late.calls, 2);
  EXPECT_NEAR(medium.rss(second, rx).value, -40.0, 1e-9);
  medium.remove_listener(&late);
}

TEST(Medium, JoinsFromTheFirstFramesAnnouncementThrow) {
  // A listener told of the first frame on the air, before the frame counts
  // as active, may not join a node or a listener either: the frame's reach
  // and terms are already sized for the nodes and listeners present.
  struct Joining final : MediumListener {
    explicit Joining(Medium& m) : medium{m} {}
    void on_tx_start(const Frame&) override {
      try {
        (void)medium.add_node({2.0, 0.0});
      } catch (const std::logic_error&) {
        ++node_refused;
      }
      try {
        medium.add_listener(this, 0);
      } catch (const std::logic_error&) {
        ++listener_refused;
      }
    }
    void on_tx_end(const Frame&) override {}
    Medium& medium;
    int node_refused = 0;
    int listener_refused = 0;
  };
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({1.0, 0.0});
  Joining joining{medium};
  medium.add_listener(&joining, rx);
  const Frame frame = make_frame(medium, tx, Mhz{2460.0});
  medium.begin_tx(frame);
  EXPECT_EQ(joining.node_refused, 1);
  EXPECT_EQ(joining.listener_refused, 1);
  EXPECT_EQ(medium.node_count(), 2u);
  EXPECT_NEAR(medium.rss(frame, rx).value, -40.0, 1e-9);
  medium.end_tx(frame.id);
  medium.remove_listener(&joining);
}

TEST(Medium, FrameIdsAreUniqueAndNonZero) {
  Medium medium{quiet_config()};
  const FrameId a = medium.allocate_frame_id();
  const FrameId b = medium.allocate_frame_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
}

TEST(Medium, RssIsPowerMinusPathLoss) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});  // 1 m => 40 dB loss
  const Frame frame = make_frame(medium, tx, Mhz{2460.0});
  EXPECT_NEAR(medium.rss(frame, rx).value, -40.0, 1e-9);
}

TEST(Medium, RssDeterministicWithShadowing) {
  MediumConfig config;
  config.shadowing_sigma_db = 2.5;
  Medium medium{config};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 2.0});
  const Frame frame = make_frame(medium, tx, Mhz{2460.0});
  const double first = medium.rss(frame, rx).value;
  for (int i = 0; i < 5; ++i) EXPECT_EQ(medium.rss(frame, rx).value, first);
}

TEST(Medium, IdleChannelSensesNoiseFloor) {
  Medium medium{quiet_config()};
  const NodeId node = medium.add_node({0.0, 0.0});
  EXPECT_NEAR(medium.sense_energy(node, Mhz{2460.0}).value, -95.0, 1e-9);
}

TEST(Medium, CoChannelSensing) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId sensor = medium.add_node({0.0, 1.0});
  medium.begin_tx(make_frame(medium, tx, Mhz{2460.0}));
  // -40 dBm signal dominates the -95 dBm floor.
  EXPECT_NEAR(medium.sense_energy(sensor, Mhz{2460.0}).value, -40.0, 0.01);
}

TEST(Medium, InterChannelSensingAppliesSensingCurve) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId sensor = medium.add_node({0.0, 1.0});
  medium.begin_tx(make_frame(medium, tx, Mhz{2463.0}));
  const double expected =
      -40.0 - medium.sensing_rejection().attenuation(Mhz{3.0}).value;  // -70
  // The -95 dBm noise floor adds ~0.014 dB on top of the -70 dBm leak.
  EXPECT_NEAR(medium.sense_energy(sensor, Mhz{2460.0}).value, expected, 0.05);
}

TEST(Medium, DecodeInterferenceAppliesDecodeCurve) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});
  medium.begin_tx(make_frame(medium, tx, Mhz{2463.0}));
  const double expected = -40.0 - medium.rejection().attenuation(Mhz{3.0}).value;
  EXPECT_NEAR(medium.interference(rx, Mhz{2460.0}, 0).value, expected, 0.05);
}

TEST(Medium, InterChannelAudibilityUsesDecodeCurveFlooredByEmissionMask) {
  // The one rule overlap() and a mid-reception receiver share. At 5 MHz the
  // decode curve rejects 37.5 dB and the sensing curve 36 dB, so a -58.5 dBm
  // arrival leaks to -96 dBm on the decode path — 1 dB under the -95 dBm
  // floor — while the sensing path would put it 0.5 dB above.
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});
  const Mhz tuned{2460.0};
  const Frame narrow = make_frame(medium, tx, Mhz{2465.0}, Dbm{-18.5});
  medium.begin_tx(narrow);
  ASSERT_NEAR(medium.rss(narrow, rx).value, -58.5, 1e-9);
  EXPECT_FALSE(medium.arrival(narrow, rx, tuned).audible);
  EXPECT_FALSE(medium.overlap(rx, tuned, 0).inter);
  medium.end_tx(narrow.id);

  // A wideband transmitter's mask (15 dB at 5 MHz) floors the rejection.
  const ChannelRejection mask{std::vector<ChannelRejection::Anchor>{
      {Mhz{0.0}, Db{0.0}}, {Mhz{10.0}, Db{30.0}}}};
  Frame wide = make_frame(medium, tx, Mhz{2465.0}, Dbm{-18.5});
  wide.emission = &mask;
  medium.begin_tx(wide);
  EXPECT_TRUE(medium.arrival(wide, rx, tuned).audible);
  EXPECT_TRUE(medium.overlap(rx, tuned, 0).inter);
}

TEST(Medium, SensingExcludesOwnTransmissions) {
  Medium medium{quiet_config()};
  const NodeId self = medium.add_node({0.0, 0.0});
  medium.begin_tx(make_frame(medium, self, Mhz{2460.0}));
  EXPECT_NEAR(medium.sense_energy(self, Mhz{2460.0}).value, -95.0, 1e-9);
}

TEST(Medium, InterferenceExcludesWantedFrame) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});
  const Frame wanted = make_frame(medium, tx, Mhz{2460.0});
  medium.begin_tx(wanted);
  EXPECT_NEAR(medium.interference(rx, Mhz{2460.0}, wanted.id).value, -95.0, 1e-9);
  // Without the exclusion the frame dominates.
  EXPECT_NEAR(medium.interference(rx, Mhz{2460.0}, 0).value, -40.0, 0.01);
}

TEST(Medium, EnergySumsLinearly) {
  Medium medium{quiet_config()};
  const NodeId a = medium.add_node({0.0, 0.0});
  const NodeId b = medium.add_node({0.0, 0.0});
  const NodeId sensor = medium.add_node({0.0, 1.0});
  medium.begin_tx(make_frame(medium, a, Mhz{2460.0}));
  medium.begin_tx(make_frame(medium, b, Mhz{2460.0}));
  // Two -40 dBm signals: +3 dB.
  EXPECT_NEAR(medium.sense_energy(sensor, Mhz{2460.0}).value, -37.0, 0.05);
}

TEST(Medium, EndTxRemovesEnergy) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  const NodeId sensor = medium.add_node({0.0, 1.0});
  const Frame frame = make_frame(medium, tx, Mhz{2460.0});
  medium.begin_tx(frame);
  EXPECT_EQ(medium.active_count(), 1u);
  medium.end_tx(frame.id);
  EXPECT_EQ(medium.active_count(), 0u);
  EXPECT_NEAR(medium.sense_energy(sensor, Mhz{2460.0}).value, -95.0, 1e-9);
}

TEST(Medium, OverlapClassification) {
  Medium medium{quiet_config()};
  const NodeId a = medium.add_node({0.0, 0.0});
  const NodeId b = medium.add_node({1.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});

  EXPECT_FALSE(medium.overlap(rx, Mhz{2460.0}, 0).co);

  medium.begin_tx(make_frame(medium, a, Mhz{2460.0}));
  EXPECT_TRUE(medium.overlap(rx, Mhz{2460.0}, 0).co);
  EXPECT_FALSE(medium.overlap(rx, Mhz{2460.0}, 0).inter);

  medium.begin_tx(make_frame(medium, b, Mhz{2463.0}));
  const Medium::Overlap both = medium.overlap(rx, Mhz{2460.0}, 0);
  EXPECT_TRUE(both.co);
  EXPECT_TRUE(both.inter);
}

TEST(Medium, OverlapIgnoresExcludedAndOwnFrames) {
  Medium medium{quiet_config()};
  const NodeId a = medium.add_node({0.0, 0.0});
  const NodeId rx = medium.add_node({0.0, 1.0});
  const Frame own = make_frame(medium, rx, Mhz{2460.0});
  const Frame wanted = make_frame(medium, a, Mhz{2460.0});
  medium.begin_tx(own);
  medium.begin_tx(wanted);
  const Medium::Overlap o = medium.overlap(rx, Mhz{2460.0}, wanted.id);
  EXPECT_FALSE(o.co);
  EXPECT_FALSE(o.inter);
}

TEST(Medium, InterOverlapRequiresEnergyAboveNoise) {
  Medium medium{quiet_config()};
  const NodeId far = medium.add_node({300.0, 0.0});  // huge path loss
  const NodeId rx = medium.add_node({0.0, 0.0});
  medium.begin_tx(make_frame(medium, far, Mhz{2463.0}, Dbm{-20.0}));
  EXPECT_FALSE(medium.overlap(rx, Mhz{2460.0}, 0).inter);
}

/// Listener that records the active-set size observed during callbacks,
/// verifying the notify-before-mutate contract.
class RecordingListener : public MediumListener {
 public:
  explicit RecordingListener(Medium& medium) : medium_{medium} {}
  void on_tx_start(const Frame&) override { sizes_at_start.push_back(medium_.active_count()); }
  void on_tx_end(const Frame&) override { sizes_at_end.push_back(medium_.active_count()); }
  std::vector<std::size_t> sizes_at_start;
  std::vector<std::size_t> sizes_at_end;

 private:
  Medium& medium_;
};

TEST(Medium, ListenersSeePreMutationState) {
  Medium medium{quiet_config()};
  const NodeId tx = medium.add_node({0.0, 0.0});
  RecordingListener listener{medium};
  medium.add_listener(&listener, tx);

  const Frame frame = make_frame(medium, tx, Mhz{2460.0});
  medium.begin_tx(frame);   // listener sees 0 active (not yet inserted)
  medium.end_tx(frame.id);  // listener sees 1 active (not yet removed)
  ASSERT_EQ(listener.sizes_at_start.size(), 1u);
  ASSERT_EQ(listener.sizes_at_end.size(), 1u);
  EXPECT_EQ(listener.sizes_at_start[0], 0u);
  EXPECT_EQ(listener.sizes_at_end[0], 1u);

  medium.remove_listener(&listener);
  medium.begin_tx(make_frame(medium, tx, Mhz{2460.0}));
  EXPECT_EQ(listener.sizes_at_start.size(), 1u);  // no further callbacks
}

}  // namespace
}  // namespace nomc::phy
