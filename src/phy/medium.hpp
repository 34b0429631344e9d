// The shared wireless medium.
//
// Tracks node positions and the set of in-flight transmissions, and answers
// the three questions everything above it asks:
//   * what is frame F's received signal strength at node N (path loss +
//     per-frame shadowing),
//   * how much total energy does node N sense on channel C right now
//     (co-channel plus rejection-attenuated inter-channel leakage plus the
//     noise floor — exactly what a CCA energy detector integrates), and
//   * what interference does node N see while decoding frame F on channel C.
//
// The medium has no notion of time: radios drive it with begin_tx/end_tx and
// it notifies listeners *before* mutating the active set, so a listener
// closing an error-accumulation segment still observes the interference set
// that was valid up to this instant.
//
// Scaling (see docs/scaling.md for the full story): queries used to walk
// every active frame — O(active) per CCA read, quadratic in node count per
// simulated second. With culling enabled (the default) every frame carries a
// conservative *influence radius*: the distance at which its strongest
// plausible RSS (tx power + a shadowing cap) falls `margin_db` below the
// noise floor. A uniform hash grid over transmitter positions lets a query
// visit only frames whose influence disc covers the querying node; frames
// beyond their radius are invisible to all queries (their contribution is
// provably below the receive floor). At paper scale the radius exceeds the
// deployment span, nothing is culled, and every result is bit-identical to
// the exhaustive path — which is pinned by tests and keeps the golden stores
// byte-stable.
//
// Hot-path caching: every query reduces to per-(frame, rx) terms — the
// frame's RSS at the receiver (tx power minus a position-determined path
// loss plus a hash-determined shadowing draw) and the linear power it leaks
// into the receiver's tuned channel on the sensing and decode paths. Those
// are asked for once per relevant frame per CCA/SINR evaluation, millions of
// times per run, so each is computed once:
//   * pairwise path loss lives in per-node open-addressing maps whose
//     entries snapshot the other endpoint's motion epoch — set_position
//     invalidates every pair involving the moved node in O(1) by bumping
//     its epoch;
//   * everything per frame lives on the in-flight frame's slot: a sparse map
//     keyed by local rx index holding the RSS (stamped with the rx's motion
//     epoch) and the sensing- and decode-path milliwatts (each stamped with
//     the rx channel it was computed for). A claimed slot starts empty, and
//     a transmitter's move clears its in-flight frames' maps;
//   * rejection attenuation is tabulated per channel distance, which takes
//     only a handful of values.
// Every memoized value is the same double a fresh computation yields (debug
// builds assert it on every hit), so caching never moves a result.
// The caches make the const query methods write to mutable state; a Medium
// is single-threaded like the Scenario that owns it (parallel replication
// runs one Medium per thread — see sim/parallel.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "phy/frame.hpp"
#include "phy/geometry.hpp"
#include "phy/node_map.hpp"
#include "phy/path_loss.hpp"
#include "phy/rejection.hpp"
#include "phy/spatial_grid.hpp"
#include "phy/units.hpp"

namespace nomc::phy {

class MediumListener {
 public:
  virtual ~MediumListener() = default;
  /// A frame is about to start; it is NOT yet in the active set.
  virtual void on_tx_start(const Frame& frame) = 0;
  /// A frame is about to end; it is STILL in the active set.
  virtual void on_tx_end(const Frame& frame) = 0;
};

/// Spatial interference culling knobs. The defaults are conservative enough
/// that paper-scale scenarios (metres to tens of metres across) cull nothing
/// and reproduce the exhaustive path bit for bit; city-scale scenarios
/// (kilometres) drop far-field frames whose energy is unobservable.
struct CullingConfig {
  bool enabled = true;
  /// A frame is culled at a receiver only once its strongest plausible RSS
  /// is this many dB below the noise floor ("receive floor" = noise − margin).
  double margin_db = 10.0;
  /// Shadowing head-room, in sigmas, folded into the influence radius so a
  /// lucky constructive fade cannot push a culled frame above the floor.
  double shadow_cap_sigma = 6.0;
  /// Grid cell edge in metres; <= 0 derives it from the influence radius of
  /// a nominal 0 dBm transmitter (queries then touch ~3x3 cells).
  double cell_size_m = 0.0;
};

struct MediumConfig {
  LogDistancePathLoss path_loss{};
  /// Demodulator-path rejection: governs decoding SINR.
  ChannelRejection rejection = ChannelRejection::cc2420_decode();
  /// Energy-detector-path rejection: governs CCA sensing.
  ChannelRejection sensing_rejection = ChannelRejection::cc2420_sensing();
  Dbm noise_floor{-95.0};
  double shadowing_sigma_db = 2.5;
  std::uint64_t seed = 1;
  CullingConfig culling{};
  /// First node id add_node() hands out. Region-sharded runs give each shard
  /// medium a disjoint id range so mirrored frames never alias local nodes;
  /// serial runs keep the default 0.
  NodeId node_id_base = 0;
  /// allocate_frame_id() counts up from frame_id_base + 1. Region-sharded
  /// runs key this off the region index so frame ids stay globally unique
  /// (shadowing draws hash the frame id; collisions would correlate fades).
  FrameId frame_id_base = 0;
};

/// The culling radius a frame sent at `tx_power` carries under `config`:
/// the distance at which tx_power + the shadowing head-room falls to the
/// receive floor (noise − margin). Free-standing so region planners can
/// derive shard extents without building a Medium.
[[nodiscard]] double influence_radius_m(const MediumConfig& config, Dbm tx_power);

class Medium {
 public:
  explicit Medium(MediumConfig config = {});
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a node at `position`; returns its id (dense, starting at
  /// `node_id_base`).
  NodeId add_node(Vec2 position);
  [[nodiscard]] std::size_t node_count() const { return positions_.size(); }
  /// True when `node` was registered with this medium (its id falls in this
  /// medium's [node_id_base, node_id_base + node_count) range). Frames from
  /// foreign sources — mirrored by a region router — fail this and are
  /// modelled from their Frame::src_pos snapshot instead.
  [[nodiscard]] bool owns(NodeId node) const {
    return node >= config_.node_id_base &&
           node - config_.node_id_base < positions_.size();
  }
  [[nodiscard]] Vec2 position(NodeId node) const;
  void set_position(NodeId node, Vec2 position);

  /// Listeners (radios) are notified of tx start/end. `node` is the
  /// listener's own (locally registered) node: with culling enabled,
  /// notifications are delivered only to listeners inside the frame's
  /// influence disc — beyond it the frame is unobservable by construction,
  /// so skipping the callback only re-anchors where error-segment RNG draws
  /// happen, never what a receiver can measure. Assumes listeners do not
  /// move across an influence boundary while a frame is in flight (static
  /// deployments; paper-scale discs exceed the deployment span, so nothing
  /// is ever skipped there).
  void add_listener(MediumListener* listener, NodeId node);
  void remove_listener(MediumListener* listener);

  [[nodiscard]] FrameId allocate_frame_id() { return next_frame_id_++; }

  void begin_tx(const Frame& frame);
  void end_tx(FrameId id);

  /// RSS of `frame` at `rx`: tx power − path loss ± shadowing. Deterministic
  /// per (frame, rx): every query about the same pair agrees.
  [[nodiscard]] Dbm rss(const Frame& frame, NodeId rx) const;

  /// Total energy a CCA detector at `node`, tuned to `channel`, reads:
  /// every relevant active frame not transmitted by `node`, attenuated by
  /// the rejection curve, summed in mW with the thermal noise floor.
  [[nodiscard]] Dbm sense_energy(NodeId node, Mhz channel) const;

  /// Interference-plus-noise for decoding frame `exclude` at `rx` on
  /// `channel`: as sense_energy but also excluding the wanted frame itself.
  [[nodiscard]] Dbm interference(NodeId rx, Mhz channel, FrameId exclude) const;

  struct Overlap {
    bool co = false;     ///< a co-channel frame is on the air (within range)
    bool inter = false;  ///< an inter-channel frame with energy above noise
  };
  /// What kinds of concurrent transmission (other than `exclude` and `rx`'s
  /// own) are on the air right now, from `rx`'s perspective on `channel`.
  [[nodiscard]] Overlap overlap(NodeId rx, Mhz channel, FrameId exclude) const;

  /// Does `frame`, sent off `channel`, leak energy above the noise floor
  /// into a decoder at `rx` tuned to `channel`? The one inter-channel
  /// audibility rule: overlap() applies it to every frame on the air, and a
  /// receiver applies it to a frame starting mid-reception.
  [[nodiscard]] bool inter_channel_audible(const Frame& frame, NodeId rx, Mhz channel) const;

  /// Carrier-sense detector: is a CO-CHANNEL transmission (not `node`'s own)
  /// in progress whose RSS at `node` clears `sensitivity`? This is what the
  /// CC2420's CCA modes 2/3 report — modulation detection only works on the
  /// tuned channel, so inter-channel energy is inherently invisible to it
  /// (the classifier the paper's §VII-C asks for). A `sensitivity` below the
  /// receive floor falls back to an exhaustive scan, so culling can never
  /// hide a carrier the detector was asked to hear.
  [[nodiscard]] bool carrier_present(NodeId node, Mhz channel, Dbm sensitivity) const;

  [[nodiscard]] std::size_t active_count() const { return active_count_; }
  [[nodiscard]] Dbm noise_floor() const { return config_.noise_floor; }
  [[nodiscard]] const ChannelRejection& rejection() const { return config_.rejection; }
  [[nodiscard]] const ChannelRejection& sensing_rejection() const {
    return config_.sensing_rejection;
  }
  [[nodiscard]] const LogDistancePathLoss& path_loss() const { return config_.path_loss; }

  /// The culling radius a frame sent at `tx_power` would carry: where
  /// tx_power + shadow_cap falls to the receive floor. Exposed for tests,
  /// benches, and the derivation walk-through in docs/scaling.md.
  [[nodiscard]] double influence_radius_m(Dbm tx_power) const;
  [[nodiscard]] bool culling_enabled() const { return config_.culling.enabled; }

 private:
  /// Which receive path a leaked power is for: the demodulator (decode
  /// rejection, SINR) or the CCA energy detector (sensing rejection).
  enum Path : std::size_t { kDecode = 0, kSensing = 1 };

  /// The per-(frame, rx) terms every query is built from. The RSS is valid
  /// while the map entry's epoch equals the rx's motion epoch; each path's
  /// milliwatts are valid for the rx channel stamped beside them (NaN: not
  /// computed yet).
  struct RxTerms {
    double rss_dbm = 0.0;
    double channel_mhz[2] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::quiet_NaN()};
    double leaked_mw[2] = {0.0, 0.0};
  };

  /// An in-flight frame, pool-allocated: slots are recycled through a free
  /// list so steady-state begin/end traffic does not allocate, and the grid
  /// can refer to frames by stable 32-bit slot index.
  struct ActiveFrame {
    Frame frame{};
    Vec2 src_pos{};               ///< transmitter position as bucketed in the grid
    std::uint64_t begin_seq = 0;  ///< global begin_tx order: fixes summation order
    double radius = 0.0;          ///< influence radius in metres
    bool live = false;            ///< visible to gather()
    /// Memoized terms keyed by local rx index; emptied when the slot is
    /// claimed and when the transmitter moves.
    mutable NodeMap<RxTerms> terms;
  };

  [[nodiscard]] MilliWatts accumulate(NodeId node, Mhz channel, FrameId exclude,
                                      Path path) const;
  /// Deliver on_tx_start/on_tx_end for `frame` to every listener inside its
  /// influence disc (all listeners when culling is off).
  void notify_listeners(const Frame& frame, Vec2 src_pos, double radius, bool start);
  /// How much of frame `f`'s energy leaks into a receiver tuned `delta` away
  /// on `path`: the receiver's filter curve, floored by the transmitter's
  /// own emission mask when one is attached (a wide transmitter puts power
  /// inside a narrow receiver's passband no matter how good the receiver's
  /// filter is).
  [[nodiscard]] Db leak_attenuation(const Frame& f, Mhz delta, Path path) const;
  /// `path`'s rejection curve at `delta`, looked up in rejection_table_.
  [[nodiscard]] Db rejection_db(Mhz delta, Path path) const;
  /// The inter_channel_audible() rule for a frame whose RSS at the receiver
  /// is already known.
  [[nodiscard]] bool leaks_above_noise(const Frame& f, Dbm rss, Mhz channel) const;
  /// RSS of `frame` at `rx` from scratch (bar the pair path-loss cache).
  [[nodiscard]] Dbm compute_rss(const Frame& frame, NodeId rx) const;
  /// The memoized terms of the frame in `slot` at `rx`, with the RSS filled.
  [[nodiscard]] RxTerms& terms(std::uint32_t slot, NodeId rx) const;
  /// The milliwatts the frame in `slot` leaks into `rx` tuned to `channel`.
  [[nodiscard]] double leaked_mw(std::uint32_t slot, NodeId rx, Mhz channel, Path path) const;
  /// Memoized PL(distance(a, b)); entries staled by either endpoint moving.
  /// Both endpoints must be locally registered.
  [[nodiscard]] double cached_loss_db(NodeId a, NodeId b) const;

  /// Dense storage index of a locally registered node.
  [[nodiscard]] std::size_t local_index(NodeId node) const {
    assert(owns(node));
    return static_cast<std::size_t>(node - config_.node_id_base);
  }

  /// Noise floor minus the culling margin, in dBm: energy below this is
  /// treated as unobservable.
  [[nodiscard]] double cull_floor_dbm() const {
    return config_.noise_floor.value - config_.culling.margin_db;
  }
  /// Fills scratch_ with (begin_seq, slot) for every frame relevant to
  /// `node` — all live frames when exhaustive (culling off or forced), else
  /// only frames whose influence disc covers `node`. Sorts by begin_seq when
  /// `ordered` so floating-point accumulation replays begin_tx order exactly.
  void gather(NodeId node, bool ordered, bool force_exhaustive = false) const;

  /// A registered listener and the node it listens at (for notification
  /// culling against the influence disc).
  struct ListenerEntry {
    MediumListener* listener = nullptr;
    NodeId node = kNoNode;
  };

  MediumConfig config_;
  ShadowingField shadowing_;
  std::vector<Vec2> positions_;
  /// Bumped when the node moves; loss-cache and frame-term entries snapshot
  /// it (see below).
  std::vector<std::uint32_t> epochs_;
  std::vector<ListenerEntry> listeners_;
  FrameId next_frame_id_ = 1;

  // -- Active set (slot pool + spatial index) ----------------------------
  std::vector<ActiveFrame> frame_slots_;
  std::vector<std::uint32_t> free_frame_slots_;
  std::unordered_map<FrameId, std::uint32_t> slot_of_;
  SpatialFrameGrid grid_;
  std::size_t active_count_ = 0;
  std::uint64_t next_begin_seq_ = 0;
  /// Largest influence radius among frames begun this busy period; bounds
  /// the query disc. Reset when the air goes quiet.
  double max_active_radius_ = 0.0;

  // -- Memoization (see the header comment) ------------------------------
  /// loss_cache_[a] maps b -> PL(a, b) stamped with b's epoch at compute
  /// time. A move bumps the mover's epoch and clears its own map: every
  /// stale pair then fails the epoch check on its next lookup.
  mutable std::vector<NodeValueMap> loss_cache_;
  /// Both rejection curves at each channel distance seen so far: at most
  /// one row per pair of channels in use, a handful in practice.
  struct RejectionRow {
    double delta_mhz = 0.0;
    Db attenuation[2];  ///< indexed by Path
  };
  mutable std::vector<RejectionRow> rejection_table_;
  /// to_milliwatts(noise_floor), the starting value of every accumulation.
  MilliWatts noise_mw_{};
  /// Query candidate buffer, reused across queries (single-threaded).
  mutable std::vector<std::pair<std::uint64_t, std::uint32_t>> scratch_;
};

}  // namespace nomc::phy
