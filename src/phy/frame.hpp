// The unit of transmission: an 802.15.4 frame on the air.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/rejection.hpp"
#include "phy/timing.hpp"
#include "phy/units.hpp"
#include "sim/time.hpp"

namespace nomc::phy {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = ~NodeId{0};

using FrameId = std::uint64_t;

enum class FrameType : std::uint8_t {
  kData,
  kAck,
  kBlockNack,  ///< PPR feedback: "these blocks of your frame were corrupt"
};

/// MPDU size of an 802.15.4 acknowledgement (FCF + seq + FCS).
inline constexpr int kAckPsduBytes = 5;

/// A frame as the PHY sees it. The simulator does not carry payload bytes —
/// only the metadata the interference model and the MAC/DCN logic consume.
struct Frame {
  FrameId id = 0;
  NodeId src = kNoNode;
  NodeId dst = kNoNode;           ///< intended receiver; kNoNode = broadcast
  Mhz channel{2460.0};            ///< center frequency
  Dbm tx_power{0.0};
  int psdu_bytes = 0;             ///< MAC header + payload + FCS
  FrameType type = FrameType::kData;
  std::uint8_t sequence = 0;      ///< MAC DSN; echoed by acknowledgements
  bool ack_request = false;       ///< sender wants an ACK (data frames only)
  std::uint8_t repair_round = 0;  ///< PPR: 0 = original, >0 = repair frame
  std::uint16_t aux = 0;          ///< small control payload (PPR: dirty-block count)

  /// Transmitter emission mask for WIDEBAND interferers (e.g. a colocated
  /// 802.11 network): how far the transmission's own spectrum reaches.
  /// The energy arriving Δf away is attenuated by min(receiver rejection,
  /// emission mask) — a wide transmitter puts power inside a narrow
  /// receiver's passband no matter how good the receiver's filter is.
  /// nullptr (the default) = narrowband 802.15.4 emission, receiver-limited.
  /// Non-owning: the mask must outlive the frame's time on the air.
  const ChannelRejection* emission = nullptr;

  [[nodiscard]] sim::SimTime duration() const { return frame_duration(psdu_bytes); }
  [[nodiscard]] int psdu_bits() const { return psdu_bytes * 8; }
};

/// Outcome of a reception attempt, delivered by Radio to its owner.
struct RxResult {
  Frame frame;
  Dbm rssi{-300.0};          ///< received signal strength of this frame
  bool crc_ok = false;       ///< true iff zero bit errors
  int bit_errors = 0;        ///< errors drawn across the PSDU
  double error_fraction = 0.0;  ///< bit_errors / psdu_bits
  bool overlapped_co = false;    ///< a co-channel frame overlapped the reception
  bool overlapped_inter = false; ///< an inter-channel frame overlapped the reception

  /// Per-block corruption map (true = block has bit errors), block size per
  /// the radio's block_size_bytes. Partial packet recovery feeds on this.
  std::vector<bool> block_errors;

  [[nodiscard]] bool collided() const { return overlapped_co || overlapped_inter; }
  [[nodiscard]] int dirty_blocks() const {
    int count = 0;
    for (const bool dirty : block_errors) count += dirty ? 1 : 0;
    return count;
  }
};

}  // namespace nomc::phy
