// Acknowledgement + retransmission behaviour (802.15.4 §7.5.6).
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "mac/cca.hpp"
#include "mac/csma.hpp"

namespace nomc::mac {
namespace {

/// One sender/receiver pair on a quiet medium; plain struct so tests can
/// spin up independent rigs side by side.
struct Rig {
  Rig() {
    phy::MediumConfig config;
    config.shadowing_sigma_db = 0.0;
    medium_.emplace(config);
    sender_id_ = medium_->add_node({0.0, 0.0});
    receiver_id_ = medium_->add_node({0.0, 2.0});

    phy::RadioConfig radio_config;
    radio_config.channel = phy::Mhz{2460.0};
    sender_radio_.emplace(scheduler_, *medium_, sim::RandomStream{1, 0}, sender_id_,
                          radio_config);
    receiver_radio_.emplace(scheduler_, *medium_, sim::RandomStream{1, 1}, receiver_id_,
                            radio_config);
    sender_.emplace(scheduler_, *medium_, *sender_radio_, sim::RandomStream{1, 2}, cca_);
    receiver_.emplace(scheduler_, *medium_, *receiver_radio_, sim::RandomStream{1, 3}, cca_);
  }

  sim::Scheduler scheduler_;
  std::optional<phy::Medium> medium_;
  FixedCcaThreshold cca_{kZigbeeDefaultCcaThreshold};
  phy::NodeId sender_id_ = 0;
  phy::NodeId receiver_id_ = 0;
  std::optional<phy::Radio> sender_radio_;
  std::optional<phy::Radio> receiver_radio_;
  std::optional<CsmaMac> sender_;
  std::optional<CsmaMac> receiver_;
};

class AckTest : public ::testing::Test, protected Rig {};

TEST_F(AckTest, SuccessfulExchange) {
  sender_->enqueue(TxRequest{receiver_id_, 100, /*ack_request=*/true});
  scheduler_.run_all();

  EXPECT_EQ(sender_->counters().sent, 1u);
  EXPECT_EQ(sender_->counters().acked, 1u);
  EXPECT_EQ(sender_->counters().retransmissions, 0u);
  EXPECT_EQ(sender_->counters().retry_drops, 0u);
  EXPECT_EQ(receiver_->counters().received, 1u);
  EXPECT_FALSE(sender_->busy());
}

TEST_F(AckTest, AckedStreamKeepsFlowing) {
  for (int i = 0; i < 20; ++i) sender_->enqueue(TxRequest{receiver_id_, 100, true});
  scheduler_.run_all();
  EXPECT_EQ(sender_->counters().acked, 20u);
  EXPECT_EQ(receiver_->counters().received, 20u);
  EXPECT_EQ(receiver_->counters().duplicates, 0u);
}

TEST_F(AckTest, NoReceiverMeansRetriesThenDrop) {
  // Address frames to a node that does not exist on the air: no ACK ever.
  sender_->enqueue(TxRequest{medium_->add_node({50.0, 50.0}), 100, true});
  scheduler_.run_all();

  // 1 original + macMaxFrameRetries retransmissions, then the drop.
  EXPECT_EQ(sender_->counters().sent, 4u);
  EXPECT_EQ(sender_->counters().retransmissions, 3u);
  EXPECT_EQ(sender_->counters().retry_drops, 1u);
  EXPECT_EQ(sender_->counters().acked, 0u);
  EXPECT_FALSE(sender_->busy());
}

TEST_F(AckTest, DropDoesNotStallQueue) {
  const phy::NodeId ghost = medium_->add_node({50.0, 50.0});
  sender_->enqueue(TxRequest{ghost, 100, true});
  sender_->enqueue(TxRequest{receiver_id_, 100, true});
  scheduler_.run_all();
  EXPECT_EQ(sender_->counters().retry_drops, 1u);
  EXPECT_EQ(sender_->counters().acked, 1u);
  EXPECT_EQ(receiver_->counters().received, 1u);
}

TEST_F(AckTest, WithoutAckRequestNoAckTraffic) {
  sender_->enqueue(TxRequest{receiver_id_, 100, /*ack_request=*/false});
  scheduler_.run_all();
  EXPECT_EQ(sender_->counters().acked, 0u);
  EXPECT_EQ(sender_->counters().sent, 1u);
  EXPECT_EQ(receiver_->counters().received, 1u);
  // No ACK was ever transmitted: the only frame on the air was the data.
  // (An ACK would have shown up as a second tx_done at the sender's radio.)
}

TEST_F(AckTest, DuplicateFilteredWhenAckLost) {
  // Jam only the ACK path: a jammer close to the SENDER fires right as the
  // data frame ends, colliding with the returning ACK but not with the data
  // reception at the far receiver.
  const phy::NodeId jammer_id = medium_->add_node({0.3, 0.0});
  phy::RadioConfig radio_config;
  radio_config.channel = phy::Mhz{2460.0};
  phy::Radio jammer_radio{scheduler_, *medium_, sim::RandomStream{1, 9}, jammer_id,
                          radio_config};

  sender_->enqueue(TxRequest{receiver_id_, 100, true});
  // Data frame: backoff (<= 7*320us) + CCA 128us + turnaround 192us, then
  // 3.392 ms airtime. Blanket the ACK window with a long jam frame starting
  // right after the earliest possible data end.
  scheduler_.schedule_at(sim::SimTime::microseconds(3400), [&] {
    phy::Frame jam;
    jam.id = medium_->allocate_frame_id();
    jam.src = jammer_id;
    jam.dst = phy::kNoNode;
    jam.channel = phy::Mhz{2460.0};
    jam.tx_power = phy::Dbm{0.0};
    jam.psdu_bytes = 150;  // ~5 ms: covers every possible ACK slot
    jammer_radio.transmit(jam);
  });
  scheduler_.run_all();

  // The data arrived (possibly twice), the first ACK was lost, the sender
  // retried, and the receiver filtered the duplicate.
  EXPECT_GE(sender_->counters().retransmissions, 1u);
  EXPECT_EQ(receiver_->counters().received, 1u);
  EXPECT_GE(receiver_->counters().duplicates, 1u);
  EXPECT_EQ(sender_->counters().acked, 1u);
}

TEST_F(AckTest, SequenceNumbersAdvancePerFrame) {
  // Two acked frames delivered in order: both must be delivered (distinct
  // DSNs), not filtered as duplicates.
  sender_->enqueue(TxRequest{receiver_id_, 50, true});
  sender_->enqueue(TxRequest{receiver_id_, 50, true});
  scheduler_.run_all();
  EXPECT_EQ(receiver_->counters().received, 2u);
  EXPECT_EQ(receiver_->counters().duplicates, 0u);
}

TEST_F(AckTest, SaturatedAckedThroughputLowerThanUnacked) {
  // ACK exchange costs a turnaround + 352 us ACK + wait per frame, so the
  // acked saturation rate must be measurably below the unacked rate.
  sender_->set_saturated(TxRequest{receiver_id_, 100, true});
  scheduler_.run_until(sim::SimTime::seconds(2.0));
  const auto acked_rate = receiver_->counters().received;

  Rig fresh;  // unacked copy of the rig
  fresh.sender_->set_saturated(TxRequest{fresh.receiver_id_, 100, false});
  fresh.scheduler_.run_until(sim::SimTime::seconds(2.0));
  const auto unacked_rate = fresh.receiver_->counters().received;

  EXPECT_LT(acked_rate, unacked_rate);
  EXPECT_GT(acked_rate, unacked_rate / 2);
}

/// Counts frames that start while their source radio is already on the air.
struct SelfOverlapProbe final : phy::MediumListener {
  explicit SelfOverlapProbe(phy::Medium& medium) : medium_{medium} {
    medium_.add_listener(this, medium_.add_node({0.0, 1.0}));
  }
  ~SelfOverlapProbe() override { medium_.remove_listener(this); }
  void on_tx_start(const phy::Frame& frame) override {
    if (on_air_[frame.src]++ > 0) ++overlaps;
  }
  void on_tx_end(const phy::Frame& frame) override { --on_air_[frame.src]; }

  phy::Medium& medium_;
  std::map<phy::NodeId, int> on_air_;
  int overlaps = 0;
};

TEST_F(AckTest, TwoWayAckedTrafficNeverOverlapsARadiosOwnFrames) {
  // Both nodes send and acknowledge. A data frame committed at CCA while the
  // node's own ACK is scheduled or on air used to start on top of that ACK
  // (the half-duplex assert in a Debug build); the CCA must read busy instead.
  SelfOverlapProbe probe{*medium_};
  sender_->set_saturated(TxRequest{receiver_id_, 20, true});
  receiver_->set_saturated(TxRequest{sender_id_, 20, true});
  scheduler_.run_until(sim::SimTime::seconds(5.0));
  EXPECT_EQ(probe.overlaps, 0);
  EXPECT_GT(sender_->counters().acked, 100u);
  EXPECT_GT(receiver_->counters().acked, 100u);
}

}  // namespace
}  // namespace nomc::mac
