#include "phy/radio.hpp"

#include <algorithm>
#include <cassert>

#include "phy/modulation.hpp"

namespace nomc::phy {
namespace {

/// The PSDU starts after the synchronization header + PHY header.
constexpr sim::SimTime phy_header_duration() {
  return kPhyHeaderBytes * 8 * kBitTime;
}

/// Capture window: a stronger co-channel frame can steal the receiver while
/// the current frame is still inside its synchronization header.
constexpr sim::SimTime capture_window() { return phy_header_duration(); }

}  // namespace

Radio::Radio(sim::Scheduler& scheduler, Medium& medium, sim::RandomStream rng, NodeId self,
             RadioConfig config)
    : scheduler_{scheduler},
      medium_{medium},
      rng_{std::move(rng)},
      self_{self},
      config_{config} {
  medium_.add_listener(this, self_);
}

Radio::~Radio() { medium_.remove_listener(this); }

Dbm Radio::sense_energy() const { return medium_.sense_energy(self_, config_.channel); }

void Radio::account_energy_until(sim::SimTime t) {
  if (t <= energy_mark_) return;
  const sim::SimTime span = t - energy_mark_;
  if (state_ == State::kTx) {
    energy_.tx_mj +=
        config_.energy.energy_mj(span, config_.energy.tx_current_ma(tx_power_in_flight_));
  } else {
    energy_.listen_mj += config_.energy.energy_mj(span, config_.energy.rx_current_ma());
  }
  energy_mark_ = t;
}

RadioEnergy Radio::energy_consumed() {
  account_energy_until(scheduler_.now());
  return energy_;
}

void Radio::transmit(const Frame& frame) {
  assert(state_ != State::kTx && "radio is half-duplex");
  assert(frame.src == self_);
  assert(frame.id != 0);
  if (state_ == State::kRx) abort_rx();

  account_energy_until(scheduler_.now());  // close the listen stretch
  state_ = State::kTx;
  tx_power_in_flight_ = frame.tx_power;
  if (scheduler_.trace() != nullptr) {
    scheduler_.trace_event({.category = "phy", .event = "tx_start", .node = self_,
                            .value = frame.tx_power.value});
  }
  medium_.begin_tx(frame);
  scheduler_.schedule_in(frame.duration(), [this, frame] {
    account_energy_until(scheduler_.now());  // close the TX stretch
    medium_.end_tx(frame.id);
    state_ = State::kIdle;
    if (listener_ != nullptr) listener_->on_tx_done(frame);
  });
}

sim::EventId Radio::schedule_tx(sim::SimTime lead, const Frame& frame, bool skip_if_busy) {
  tx_committed_until_ = std::max(tx_committed_until_, scheduler_.now() + lead + frame.duration());
  if (skip_if_busy) {
    return scheduler_.schedule_in(lead, [this, frame] {
      if (state_ == State::kTx) return;
      transmit(frame);
    });
  }
  return scheduler_.schedule_in(lead, [this, frame] { transmit(frame); });
}

void Radio::abort_rx() {
  if (state_ != State::kRx) return;
  // The abandoned frame simply vanishes from this node's point of view, as
  // on hardware: no callback fires.
  rx_.reset();
  state_ = State::kIdle;
}

void Radio::lock_onto(const Frame& frame, Dbm rssi) {
  RxContext& ctx = rx_.emplace();
  ctx.frame = frame;
  ctx.rssi = rssi;
  ctx.start = scheduler_.now();
  ctx.last_boundary = ctx.start;
  if (config_.block_size_bytes > 0 && frame.psdu_bytes > 0) {
    const int blocks =
        (frame.psdu_bytes + config_.block_size_bytes - 1) / config_.block_size_bytes;
    ctx.dirty_blocks.assign(static_cast<std::size_t>(blocks), false);
  }
  // Frames already on the air when we lock count as overlap (e.g. locking
  // between two attacker frames, or onto a frame that started under an
  // ongoing inter-channel transmission). Their exact interference sum seeds
  // the bound.
  const Medium::Overlap existing = medium_.overlap(self_, config_.channel, frame.id);
  ctx.overlapped_co = existing.co;
  ctx.overlapped_inter = existing.inter;
  ctx.bound = existing.interference_mw;
  ctx.error_free = to_milliwatts(rssi - Db{kErrorFreeSinrDb});
  state_ = State::kRx;
}

bool Radio::proven_error_free() const {
  if (rx_->bound > rx_->error_free) return false;
#ifndef NDEBUG
  const MilliWatts exact = medium_.interference_mw(self_, config_.channel, rx_->frame.id);
  assert(exact <= rx_->bound && "interference exceeds the segment bound");
  assert(ber(config_.ber_model, (rx_->rssi - to_dbm(exact)).value) == 0.0 &&
         "a segment proven error-free has a nonzero BER");
#endif
  return true;
}

void Radio::close_segment() {
  assert(rx_.has_value());
  const sim::SimTime now = scheduler_.now();
  if (now <= rx_->last_boundary) return;

  // Errors accumulate only over the PSDU portion of the frame; the model
  // treats the synchronization header as either wholly captured at lock time
  // or wholly lost (no lock), which matches how the testbed counts "received
  // with error bits" (preamble was detected, payload was damaged).
  const sim::SimTime psdu_start = rx_->start + phy_header_duration();
  const sim::SimTime lo = rx_->last_boundary > psdu_start ? rx_->last_boundary : psdu_start;
  if (now > lo) {
    const std::int64_t bits = (now - lo) / kBitTime;
    if (bits > 0 && !proven_error_free()) {
      const MilliWatts interference =
          medium_.interference_mw(self_, config_.channel, rx_->frame.id);
      rx_->bound = interference;  // drops the frames that ended
      const double sinr_db = (rx_->rssi - to_dbm(interference)).value;
      const double bit_error_rate = ber(config_.ber_model, sinr_db);
      if (rx_->dirty_blocks.empty()) {
        rx_->bit_errors += rng_.binomial(bits, bit_error_rate);
      } else {
        // Per-block accounting: split the segment's bits across the blocks
        // they belong to and draw each block's errors independently — same
        // marginal distribution as one draw, plus the corruption map PPR
        // needs. Bit offsets are relative to the PSDU start.
        const std::int64_t first_bit = (lo - psdu_start) / kBitTime;
        const std::int64_t block_bits = std::int64_t{8} * config_.block_size_bytes;
        std::int64_t remaining = bits;
        std::int64_t bit = first_bit;
        while (remaining > 0) {
          const auto block = static_cast<std::size_t>(bit / block_bits);
          const std::int64_t in_block = std::min(remaining, block_bits - bit % block_bits);
          if (block < rx_->dirty_blocks.size()) {
            const std::int64_t errors = rng_.binomial(in_block, bit_error_rate);
            if (errors > 0) {
              rx_->bit_errors += errors;
              rx_->dirty_blocks[block] = true;
            }
          }
          bit += in_block;
          remaining -= in_block;
        }
      }
    }
  }
  rx_->last_boundary = now;
}

void Radio::finish_rx() {
  assert(rx_.has_value());
  RxResult result;
  result.frame = rx_->frame;
  result.rssi = rx_->rssi;
  result.bit_errors = static_cast<int>(rx_->bit_errors);
  result.crc_ok = rx_->bit_errors == 0;
  const int total_bits = rx_->frame.psdu_bits();
  result.error_fraction =
      total_bits > 0 ? static_cast<double>(rx_->bit_errors) / total_bits : 0.0;
  result.overlapped_co = rx_->overlapped_co;
  result.overlapped_inter = rx_->overlapped_inter;
  result.block_errors = std::move(rx_->dirty_blocks);

  rx_.reset();
  state_ = State::kIdle;
  if (scheduler_.trace() != nullptr) {
    scheduler_.trace_event({.category = "phy",
                            .event = result.crc_ok ? "rx_ok" : "rx_fail",
                            .node = self_,
                            .value = result.error_fraction});
  }
  if (listener_ != nullptr) listener_->on_rx(result);
}

void Radio::on_tx_start(const Frame& frame) {
  if (frame.src == self_) return;  // own transmission

  const bool co_channel = same_channel(frame.channel, config_.channel);

  if (state_ == State::kIdle) {
    // Lock policy: 802.15.4 radios only synchronize to their exact channel;
    // the 802.11b model (wider lock_bandwidth) also locks onto overlapped
    // channels, at the rejection-filtered effective signal strength.
    const Mhz delta = frequency_distance(frame.channel, config_.channel);
    if (delta < config_.lock_bandwidth) {
      const Db rejection = medium_.rejection().attenuation(delta);
      const Dbm rssi = medium_.rss(frame, self_) - rejection;
      if (rssi >= config_.sensitivity) lock_onto(frame, rssi);
    }
    return;
  }

  if (state_ == State::kRx) {
    // Interference set changes now: account for the elapsed segment first.
    close_segment();
    const Medium::Arrival arrival = medium_.arrival(frame, self_, config_.channel);
    if (co_channel) {
      rx_->overlapped_co = true;
      // Preamble capture: a sufficiently stronger co-channel frame steals the
      // receiver if the current frame is still in its sync header.
      const bool in_capture_window = scheduler_.now() - rx_->start < capture_window();
      if (in_capture_window && arrival.rss >= rx_->rssi + config_.capture_margin) {
        rx_.reset();
        state_ = State::kIdle;
        lock_onto(frame, arrival.rss);  // seeds a new bound
        // The stolen-from frame is still on the air: it overlaps the new one.
        rx_->overlapped_co = true;
        return;
      }
    } else if (arrival.audible) {
      rx_->overlapped_inter = true;
    }
    // The frame interferes from now on.
    rx_->bound += arrival.interference;
  }
  // State kTx: nothing to do; we are deaf while transmitting.
}

void Radio::on_tx_end(const Frame& frame) {
  if (frame.src == self_) return;
  if (state_ != State::kRx) return;

  if (frame.id == rx_->frame.id) {
    close_segment();
    finish_rx();
  } else {
    // An interferer left the air: close the segment it participated in.
    close_segment();
  }
}

}  // namespace nomc::phy
