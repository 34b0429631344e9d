#include "phy/radio.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace nomc::phy {
namespace {

/// Test rig: a medium with no shadowing, a scheduler, and helpers to build
/// radios/frames tersely.
class RadioTest : public ::testing::Test {
 protected:
  RadioTest() {
    MediumConfig config;
    config.shadowing_sigma_db = 0.0;
    medium_.emplace(config);
  }

  NodeId node(double x, double y) { return medium_->add_node({x, y}); }

  std::unique_ptr<Radio> radio(NodeId id, Mhz channel) {
    RadioConfig config;
    config.channel = channel;
    return std::make_unique<Radio>(scheduler_, *medium_, sim::RandomStream{1, id}, id, config);
  }

  Frame frame(NodeId src, NodeId dst, Mhz channel, Dbm power = Dbm{0.0}, int psdu = 100) {
    Frame f;
    f.id = medium_->allocate_frame_id();
    f.src = src;
    f.dst = dst;
    f.channel = channel;
    f.tx_power = power;
    f.psdu_bytes = psdu;
    return f;
  }

  sim::Scheduler scheduler_;
  std::optional<Medium> medium_;
};

class CollectingListener : public RadioListener {
 public:
  void on_rx(const RxResult& result) override { received.push_back(result); }
  void on_tx_done(const Frame& frame) override { tx_done.push_back(frame); }
  std::vector<RxResult> received;
  std::vector<Frame> tx_done;
};

TEST_F(RadioTest, TransmitLifecycle) {
  const NodeId a = node(0, 0);
  auto tx = radio(a, Mhz{2460.0});
  CollectingListener listener;
  tx->set_listener(&listener);

  const Frame f = frame(a, kNoNode, Mhz{2460.0});
  tx->transmit(f);
  EXPECT_EQ(tx->state(), Radio::State::kTx);
  EXPECT_EQ(medium_->active_count(), 1u);

  scheduler_.run_all();
  EXPECT_EQ(tx->state(), Radio::State::kIdle);
  EXPECT_EQ(medium_->active_count(), 0u);
  ASSERT_EQ(listener.tx_done.size(), 1u);
  EXPECT_EQ(listener.tx_done[0].id, f.id);
  EXPECT_EQ(scheduler_.now(), f.duration());
}

TEST_F(RadioTest, CleanReceptionPassesCrc) {
  const NodeId a = node(0, 0);
  const NodeId b = node(0, 2);
  auto tx = radio(a, Mhz{2460.0});
  auto rx = radio(b, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  tx->transmit(frame(a, b, Mhz{2460.0}));
  scheduler_.run_all();

  ASSERT_EQ(listener.received.size(), 1u);
  const RxResult& result = listener.received[0];
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(result.bit_errors, 0);
  EXPECT_FALSE(result.collided());
  EXPECT_NEAR(result.rssi.value, -46.62, 0.05);  // 0 dBm - PL(2 m)
}

TEST_F(RadioTest, ReceiverIgnoresOtherChannels) {
  const NodeId a = node(0, 0);
  const NodeId b = node(0, 2);
  auto tx = radio(a, Mhz{2463.0});
  auto rx = radio(b, Mhz{2460.0});  // 3 MHz away: never locks
  CollectingListener listener;
  rx->set_listener(&listener);

  tx->transmit(frame(a, b, Mhz{2463.0}));
  scheduler_.run_all();
  EXPECT_TRUE(listener.received.empty());
  EXPECT_EQ(rx->state(), Radio::State::kIdle);
}

TEST_F(RadioTest, BelowSensitivityIsMissed) {
  const NodeId a = node(0, 0);
  const NodeId b = node(0, 400.0);  // PL(400 m) = 40 + 22*log10(400) ≈ 97 dB
  auto tx = radio(a, Mhz{2460.0});
  auto rx = radio(b, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  tx->transmit(frame(a, b, Mhz{2460.0}, Dbm{-20.0}));  // RSS ≈ -117 dBm
  scheduler_.run_all();
  EXPECT_TRUE(listener.received.empty());
}

TEST_F(RadioTest, PromiscuousReception) {
  const NodeId a = node(0, 0);
  const NodeId b = node(0, 2);
  const NodeId c = node(1, 1);
  auto tx = radio(a, Mhz{2460.0});
  auto rx_b = radio(b, Mhz{2460.0});
  auto rx_c = radio(c, Mhz{2460.0});
  CollectingListener lb;
  CollectingListener lc;
  rx_b->set_listener(&lb);
  rx_c->set_listener(&lc);

  tx->transmit(frame(a, b, Mhz{2460.0}));  // addressed to b, overheard by c
  scheduler_.run_all();
  EXPECT_EQ(lb.received.size(), 1u);
  EXPECT_EQ(lc.received.size(), 1u);  // the DCN adjustor depends on this
}

TEST_F(RadioTest, CoChannelCollisionDecodesAtMostOne) {
  const NodeId a = node(0, 0);
  const NodeId b = node(0.5, 0);
  const NodeId rx_id = node(0, 2);
  auto tx_a = radio(a, Mhz{2460.0});
  auto tx_b = radio(b, Mhz{2460.0});
  auto rx = radio(rx_id, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  // Equal-power frames fully overlapping: the receiver can attempt at most
  // one of them (the paper's co-channel observation); the other is lost.
  tx_a->transmit(frame(a, rx_id, Mhz{2460.0}));
  tx_b->transmit(frame(b, rx_id, Mhz{2460.0}));
  scheduler_.run_all();

  ASSERT_EQ(listener.received.size(), 1u);  // locked onto the first only
  EXPECT_TRUE(listener.received[0].overlapped_co);
}

TEST_F(RadioTest, HotCoChannelInterferenceCorruptsLockedFrame) {
  const NodeId a = node(0, 0);
  const NodeId b = node(0.3, 2);  // right next to the receiver
  const NodeId rx_id = node(0, 2);
  auto tx_a = radio(a, Mhz{2460.0});
  auto tx_b = radio(b, Mhz{2460.0});
  auto rx = radio(rx_id, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  // The interferer fires after the wanted frame's sync header (no capture)
  // and arrives ~7 dB hotter: the locked frame is destroyed.
  tx_a->transmit(frame(a, rx_id, Mhz{2460.0}));
  scheduler_.schedule_at(sim::SimTime::microseconds(500), [&] {
    tx_b->transmit(frame(b, kNoNode, Mhz{2460.0}));
  });
  scheduler_.run_all();

  ASSERT_GE(listener.received.size(), 1u);
  EXPECT_FALSE(listener.received[0].crc_ok);
  EXPECT_TRUE(listener.received[0].overlapped_co);
  EXPECT_GT(listener.received[0].error_fraction, 0.05);
}

TEST_F(RadioTest, CaptureByStrongerPreamble) {
  const NodeId weak = node(0, 30);    // far: weak at the receiver
  const NodeId strong = node(0, 1);   // near: >6 dB stronger
  const NodeId rx_id = node(0, 0);
  auto tx_weak = radio(weak, Mhz{2460.0});
  auto tx_strong = radio(strong, Mhz{2460.0});
  auto rx = radio(rx_id, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  const Frame weak_frame = frame(weak, rx_id, Mhz{2460.0});
  tx_weak->transmit(weak_frame);
  // The strong frame arrives inside the weak frame's preamble window.
  scheduler_.schedule_at(sim::SimTime::microseconds(100), [&] {
    tx_strong->transmit(frame(strong, rx_id, Mhz{2460.0}));
  });
  scheduler_.run_all();

  // Only the strong frame is delivered; the weak one lost the receiver.
  ASSERT_EQ(listener.received.size(), 1u);
  EXPECT_EQ(listener.received[0].frame.src, strong);
  EXPECT_TRUE(listener.received[0].overlapped_co);
}

TEST_F(RadioTest, NoCaptureAfterPreambleWindow) {
  const NodeId weak = node(0, 30);
  const NodeId strong = node(0, 1);
  const NodeId rx_id = node(0, 0);
  auto tx_weak = radio(weak, Mhz{2460.0});
  auto tx_strong = radio(strong, Mhz{2460.0});
  auto rx = radio(rx_id, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  tx_weak->transmit(frame(weak, rx_id, Mhz{2460.0}));
  // Arrives after the 192 us sync window: no capture, acts as interference.
  scheduler_.schedule_at(sim::SimTime::microseconds(500), [&] {
    tx_strong->transmit(frame(strong, rx_id, Mhz{2460.0}));
  });
  scheduler_.run_all();

  ASSERT_GE(listener.received.size(), 1u);
  EXPECT_EQ(listener.received[0].frame.src, weak);
  EXPECT_FALSE(listener.received[0].crc_ok);  // blasted by the strong frame
}

TEST_F(RadioTest, InterChannelInterferenceFlagged) {
  const NodeId a = node(0, 0);
  const NodeId interferer = node(0.5, 2);
  const NodeId rx_id = node(0, 2);
  auto tx = radio(a, Mhz{2460.0});
  auto tx_i = radio(interferer, Mhz{2463.0});
  auto rx = radio(rx_id, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  tx_i->transmit(frame(interferer, kNoNode, Mhz{2463.0}));
  tx->transmit(frame(a, rx_id, Mhz{2460.0}));
  scheduler_.run_all();

  ASSERT_EQ(listener.received.size(), 1u);
  EXPECT_TRUE(listener.received[0].overlapped_inter);
  EXPECT_FALSE(listener.received[0].overlapped_co);
  // 3 MHz rejection keeps the packet intact at bench distances.
  EXPECT_TRUE(listener.received[0].crc_ok);
}

TEST_F(RadioTest, TransmitAbortsReception) {
  const NodeId a = node(0, 0);
  const NodeId b = node(0, 2);
  auto tx = radio(a, Mhz{2460.0});
  auto rx = radio(b, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  tx->transmit(frame(a, b, Mhz{2460.0}));
  // Mid-reception, b starts its own transmission: the rx is abandoned.
  scheduler_.schedule_at(sim::SimTime::microseconds(400), [&] {
    rx->transmit(frame(b, kNoNode, Mhz{2460.0}));
  });
  scheduler_.run_all();
  EXPECT_TRUE(listener.received.empty());
  EXPECT_EQ(rx->state(), Radio::State::kIdle);
}

TEST_F(RadioTest, DeafWhileTransmitting) {
  const NodeId a = node(0, 0);
  const NodeId b = node(0, 2);
  auto tx = radio(a, Mhz{2460.0});
  auto rx = radio(b, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  rx->transmit(frame(b, kNoNode, Mhz{2460.0}, Dbm{0.0}, 200));  // long own frame
  tx->transmit(frame(a, b, Mhz{2460.0}, Dbm{0.0}, 50));          // short incoming
  scheduler_.run_all();
  EXPECT_TRUE(listener.received.empty());  // missed: radio was busy TXing
}

TEST_F(RadioTest, SenseEnergyReflectsMedium) {
  const NodeId a = node(0, 0);
  const NodeId b = node(0, 1);
  auto tx = radio(a, Mhz{2463.0});
  auto sensor = radio(b, Mhz{2460.0});

  EXPECT_NEAR(sensor->sense_energy().value, -95.0, 0.01);
  tx->transmit(frame(a, kNoNode, Mhz{2463.0}));
  const double expected = -40.0 - medium_->sensing_rejection().attenuation(Mhz{3.0}).value;
  EXPECT_NEAR(sensor->sense_energy().value, expected, 0.05);
}

TEST_F(RadioTest, ErrorFractionConsistentWithBitErrors) {
  const NodeId a = node(0, 0);
  const NodeId jammer = node(0.2, 2);
  const NodeId rx_id = node(0, 2);
  auto tx = radio(a, Mhz{2460.0});
  auto tx_j = radio(jammer, Mhz{2461.0});  // 1 MHz away: heavy leakage
  auto rx = radio(rx_id, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  tx->transmit(frame(a, rx_id, Mhz{2460.0}, Dbm{-25.0}));
  tx_j->transmit(frame(jammer, kNoNode, Mhz{2461.0}, Dbm{0.0}));
  scheduler_.run_all();

  ASSERT_EQ(listener.received.size(), 1u);
  const RxResult& r = listener.received[0];
  EXPECT_FALSE(r.crc_ok);
  EXPECT_NEAR(r.error_fraction,
              static_cast<double>(r.bit_errors) / r.frame.psdu_bits(), 1e-12);
  EXPECT_GT(r.bit_errors, 0);
  EXPECT_LE(r.bit_errors, r.frame.psdu_bits());
}

/// The instant `bits_in` bits into the PSDU of a frame that started at 0:
/// the PSDU follows the 6-byte synchronization and PHY header.
sim::SimTime psdu_bit(int bits_in) {
  return sim::SimTime::microseconds(4 * (kPhyHeaderBytes * 8 + bits_in));
}

/// 16-byte blocks (RadioConfig's default), in bits.
constexpr int kBlockBits = 16 * 8;

TEST_F(RadioTest, BoundSeededAtLockHoldsAnInterChannelFrameOnTheAir) {
  // An inter-channel frame already on the air when the receiver locks puts
  // the SINR below kErrorFreeSinrDb, yet far above the cliff. The bound is
  // seeded with the exact sum at lock, so it holds that frame and no segment
  // is skipped on a false proof (Debug builds re-prove every skip); the
  // frame passes CRC.
  const NodeId a = node(0, 0);
  const NodeId interferer = node(0.3, 2);
  const NodeId rx_id = node(0, 2);
  auto tx = radio(a, Mhz{2460.0});
  auto tx_i = radio(interferer, Mhz{2462.0});
  auto rx = radio(rx_id, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  tx_i->transmit(frame(interferer, kNoNode, Mhz{2462.0}, Dbm{0.0}, 120));  // outlasts `wanted`
  const Frame wanted = frame(a, rx_id, Mhz{2460.0});
  tx->transmit(wanted);
  const Db sinr =
      medium_->rss(wanted, rx_id) - medium_->interference(rx_id, Mhz{2460.0}, wanted.id);
  EXPECT_LT(sinr.value, kErrorFreeSinrDb);
  EXPECT_GT(sinr.value, 10.0);
  scheduler_.run_all();

  ASSERT_EQ(listener.received.size(), 1u);
  EXPECT_TRUE(listener.received[0].overlapped_inter);
  EXPECT_TRUE(listener.received[0].crc_ok);
}

TEST_F(RadioTest, BoundSeededAtLockHoldsAHotInterChannelFrame) {
  // The same seed with a jammer 1 MHz away that was on the air first: a
  // bound of the noise floor alone would wrongly prove the frame clean.
  const NodeId a = node(0, 0);
  const NodeId jammer = node(0.2, 2);
  const NodeId rx_id = node(0, 2);
  auto tx = radio(a, Mhz{2460.0});
  auto tx_j = radio(jammer, Mhz{2461.0});
  auto rx = radio(rx_id, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  tx_j->transmit(frame(jammer, kNoNode, Mhz{2461.0}, Dbm{0.0}, 120));
  tx->transmit(frame(a, rx_id, Mhz{2460.0}, Dbm{-25.0}));
  scheduler_.run_all();

  ASSERT_EQ(listener.received.size(), 1u);
  const RxResult& r = listener.received[0];
  EXPECT_FALSE(r.crc_ok);
  EXPECT_TRUE(r.overlapped_inter);
  for (std::size_t block = 0; block < r.block_errors.size(); ++block) {
    EXPECT_TRUE(r.block_errors[block]) << "block " << block;
  }
}

TEST_F(RadioTest, BoundGrownByACoChannelStartAfterASkippedCleanSegment) {
  // The receiver locks onto a clean frame (the bound proves its first
  // blocks error-free), then a hot co-channel frame starts in block 2, past
  // the capture window. Its term joins the bound, so every later segment is
  // read exactly: the blocks before it stay clean, the rest are destroyed.
  const NodeId a = node(0, 0);
  const NodeId b = node(0.3, 2);
  const NodeId rx_id = node(0, 2);
  auto tx_a = radio(a, Mhz{2460.0});
  auto tx_b = radio(b, Mhz{2460.0});
  auto rx = radio(rx_id, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  tx_a->transmit(frame(a, rx_id, Mhz{2460.0}));  // 100 bytes: 7 blocks
  scheduler_.schedule_at(psdu_bit(2 * kBlockBits + 12), [&] {
    tx_b->transmit(frame(b, kNoNode, Mhz{2460.0}));  // outlasts the wanted frame
  });
  scheduler_.run_all();

  ASSERT_GE(listener.received.size(), 1u);
  const RxResult& r = listener.received[0];
  EXPECT_EQ(r.frame.src, a);
  EXPECT_FALSE(r.crc_ok);
  EXPECT_TRUE(r.overlapped_co);
  ASSERT_EQ(r.block_errors.size(), 7u);
  EXPECT_FALSE(r.block_errors[0]);
  EXPECT_FALSE(r.block_errors[1]);
  for (std::size_t block = 2; block < 7; ++block) {
    EXPECT_TRUE(r.block_errors[block]) << "block " << block;
  }
}

TEST_F(RadioTest, BoundResetByAnExactReadAfterAnInterfererEnds) {
  // A short hot co-channel burst corrupts block 2 and ends in block 3. The
  // ended burst stays in the bound until the next change-point (a far
  // frame starting in block 5) reads the interference exactly and drops
  // it; the later segments are proven clean again.
  const NodeId a = node(0, 0);
  const NodeId b = node(0.3, 2);
  const NodeId far = node(0, 5);
  const NodeId rx_id = node(0, 2);
  auto tx_a = radio(a, Mhz{2460.0});
  auto tx_b = radio(b, Mhz{2460.0});
  auto tx_far = radio(far, Mhz{2475.0});
  auto rx = radio(rx_id, Mhz{2460.0});
  CollectingListener listener;
  rx->set_listener(&listener);

  tx_a->transmit(frame(a, rx_id, Mhz{2460.0}, Dbm{0.0}, 120));  // 8 blocks
  scheduler_.schedule_at(psdu_bit(2 * kBlockBits + 12), [&] {
    // 16 bytes on the air in all: 128 bits, ending in block 3.
    tx_b->transmit(frame(b, kNoNode, Mhz{2460.0}, Dbm{0.0}, 10));
  });
  scheduler_.schedule_at(psdu_bit(5 * kBlockBits + 5), [&] {
    tx_far->transmit(frame(far, kNoNode, Mhz{2475.0}, Dbm{0.0}, 20));
  });
  scheduler_.run_all();

  ASSERT_EQ(listener.received.size(), 1u);
  const RxResult& r = listener.received[0];
  EXPECT_EQ(r.frame.src, a);
  EXPECT_FALSE(r.crc_ok);
  ASSERT_EQ(r.block_errors.size(), 8u);
  EXPECT_FALSE(r.block_errors[0]);
  EXPECT_FALSE(r.block_errors[1]);
  EXPECT_TRUE(r.block_errors[2]);
  for (std::size_t block = 4; block < 8; ++block) {
    EXPECT_FALSE(r.block_errors[block]) << "block " << block;
  }
}

}  // namespace
}  // namespace nomc::phy
