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
// plausible RSS (tx power + a shadowing cap) falls a fixed margin below the
// noise floor. Frames beyond their radius are invisible to all queries
// (their contribution is provably below the receive floor). At paper scale
// the radius exceeds the deployment span, nothing is culled, and every
// result is bit-identical to the exhaustive path — which is pinned by tests
// and keeps the golden stores byte-stable.
//
// Every query asks which in-flight frames cover a receiver. Nodes never
// move, so where a frame can reach is a property of the deployment, not of
// the frame: the medium memoises one *reach* per (source, tx power), built
// on the first begin_tx with that key. A reach holds
//   * the influence radius, and whether it covers the diagonal of the
//     nodes' bounding box (`covers_all`). Such a frame reaches every node,
//     and while every live frame does, queries walk an ordered list of the
//     live frames;
//   * for a frame that does not (`partial`), every listening node inside
//     its disc, ascending, found once through a uniform hash grid over the
//     listening nodes' positions, and the listeners at those nodes in
//     registration order. begin_tx appends a partial frame to each such
//     node's `near_` list, and notifies those listeners (a covering frame
//     notifies every listener). The lists stay in begin_tx order, so a query
//     at a listening node reads its list and sums in exactly the order the
//     exhaustive path does;
//   * the pair path loss from the source to each node it reaches.
// A node that never had a listener is on no list; a read there walks the
// live list with the exact disc test. No product code reads there: radios
// and MACs read at their own node, which listens.
// All of it rests on a static geometry: nodes never move, and nodes and
// listeners join only while no frame is claimed (add_node and add_listener
// throw otherwise, also from a callback announcing the first frame) and
// clear the memo. A node counts as listening from its first add_listener
// on, so every reach and every near_ list stays valid for a frame's whole
// time on the air. remove_listener is legal at any time (a scenario tears
// its radios down mid-flight); it marks the registration removed, which
// stops that listener's callbacks and leaves every index in place.
//
// Hot-path caching: every query reduces to per-(frame, rx) terms — the
// frame's RSS at the receiver (tx power minus the reach's pair loss plus a
// hash-determined shadowing draw) and the linear power it leaks into the
// receiver's tuned channel on the sensing and decode paths. Those are asked
// for once per relevant frame per CCA/SINR evaluation, millions of times per
// run, so each is computed once:
//   * everything per frame lives in one dense array on the in-flight
//     frame's slot, indexed like the reach's losses: by the rx's position in
//     the covered set (partial frames) or by the rx index itself (covering
//     frames). An entry holds the RSS and the sensing- and decode-path
//     milliwatts, each with whether its level clears the noise floor and
//     stamped with the rx channel it was computed for, and
//     is valid while its stamp equals the slot's generation, so claiming a
//     slot clears it in O(1). A read outside a partial frame's covered set
//     computes the RSS, loss included, afresh;
//   * while a listener is told of a frame, rss() for that frame at the
//     listener's node goes straight to its entry;
//   * rejection attenuation is tabulated per channel distance, which takes
//     only a handful of values.
// Every memoized value is the same double a fresh computation yields (debug
// builds assert it on every hit, check every reach against a brute-force
// scan of the nodes and listeners, and every list read against a
// brute-force filter of the live frames), so caching never moves a result.
// The caches make the const query methods write to mutable state; a Medium
// is single-threaded like the Scenario that owns it (parallel replication
// runs one Medium per thread — see sim/parallel.hpp).
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "phy/frame.hpp"
#include "phy/geometry.hpp"
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

/// Spatial interference culling. Its margins (medium.cpp) are conservative
/// enough that paper-scale scenarios (metres to tens of metres across) cull
/// nothing and reproduce the exhaustive path bit for bit; city-scale
/// scenarios (kilometres) drop far-field frames whose energy is
/// unobservable. Off, every query walks every live frame: the reference
/// the culled path is tested against.
struct CullingConfig {
  bool enabled = true;
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
};

class Medium {
 public:
  explicit Medium(MediumConfig config = {});
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a node at `position`, where it stays; returns its id (dense,
  /// starting at 0). Precondition: both coordinates are finite (asserted).
  /// Throws std::logic_error while a frame is on the air or being
  /// announced.
  NodeId add_node(Vec2 position);
  [[nodiscard]] std::size_t node_count() const { return positions_.size(); }
  [[nodiscard]] Vec2 position(NodeId node) const;

  /// Listeners (radios) are notified of tx start/end. `node` is the
  /// listener's own node: with culling enabled, notifications are
  /// delivered only to listeners inside the frame's influence disc —
  /// beyond it the frame is unobservable by construction, so skipping the
  /// callback only re-anchors where error-segment RNG draws happen, never
  /// what a receiver can measure. Listeners are called in registration
  /// order. add_listener throws std::logic_error while a frame is on the
  /// air or being announced; remove_listener is legal at any time and stops
  /// that listener's callbacks (every registration of it), while its node
  /// keeps counting as listening.
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
  [[nodiscard]] Dbm interference(NodeId rx, Mhz channel, FrameId exclude) const {
    return to_dbm(interference_mw(rx, channel, exclude));
  }
  /// interference() before the conversion to dBm.
  [[nodiscard]] MilliWatts interference_mw(NodeId rx, Mhz channel, FrameId exclude) const;

  struct Overlap {
    bool co = false;     ///< a co-channel frame is on the air (within range)
    bool inter = false;  ///< an inter-channel frame with energy above noise
    /// interference_mw(rx, channel, exclude): overlap() walks the same
    /// frames in the same order, so it is the same double.
    MilliWatts interference_mw{};
  };
  /// What kinds of concurrent transmission (other than `exclude` and `rx`'s
  /// own) are on the air right now, from `rx`'s perspective on `channel`.
  [[nodiscard]] Overlap overlap(NodeId rx, Mhz channel, FrameId exclude) const;

  /// What `frame` brings to a decoder at `rx` tuned to `channel`, read from
  /// the frame's memoised terms in one lookup (a listener asking about the
  /// frame it is being told of goes straight to its entry).
  struct Arrival {
    Dbm rss;                  ///< rss(frame, rx)
    MilliWatts interference;  ///< the term interference() sums for it at rx
    /// Its leaked energy clears the noise floor: the one inter-channel
    /// audibility rule. overlap() applies it to every frame on the air, and
    /// a receiver to a frame starting mid-reception.
    bool audible = false;
  };
  [[nodiscard]] Arrival arrival(const Frame& frame, NodeId rx, Mhz channel) const;

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

  /// The power a frame leaks into a receiver on one path: in milliwatts,
  /// and whether its level clears the noise floor (Arrival::audible on the
  /// decode path).
  struct Leak {
    double mw = 0.0;
    bool above_noise = false;
  };

  /// The per-(frame, rx) terms every query is built from. The entry is
  /// valid while `gen` equals its slot's generation; each path's leak is
  /// valid for the rx channel stamped beside it (NaN: not computed yet).
  struct RxTerms {
    double rss_dbm = 0.0;
    double channel_mhz[2] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::quiet_NaN()};
    double leaked_mw[2] = {0.0, 0.0};
    std::uint32_t gen = 0;  ///< 0 is never a current slot generation
    bool above_noise[2] = {false, false};
  };

  /// Term index of an rx outside a partial frame's disc: its RSS is
  /// computed on demand and never cached.
  static constexpr std::uint32_t kUncovered = ~std::uint32_t{0};

  /// Where a frame from one source at one tx power reaches (see the header
  /// comment). Built once per key and never changed; add_node and
  /// add_listener drop every reach.
  struct Reach {
    double tx_power_dbm = 0.0;
    double radius = 0.0;      ///< influence radius in metres
    bool covers_all = false;  ///< radius spans the node bounding box
    /// Partial reaches only: every listening node inside the disc, ascending.
    std::vector<NodeId> covered;
    /// PL(source, rx), indexed like a frame's terms: by the rx's position
    /// in `covered` (partial) or by the rx index (covering).
    std::vector<double> loss_db;
    /// A registration to notify, and the term index at its node.
    struct Listener {
      std::uint32_t index = 0;  ///< into listeners_
      std::uint32_t k = 0;
      friend bool operator==(const Listener&, const Listener&) = default;
    };
    /// Partial reaches only: the registrations at the covered nodes, in
    /// registration order (a covering frame notifies every listener).
    std::vector<Listener> listeners;
  };

  /// An in-flight frame, pool-allocated: slots are recycled through a free
  /// list so steady-state begin/end traffic does not allocate, and the
  /// near_ lists can refer to frames by stable 32-bit slot index.
  struct ActiveFrame {
    Frame frame{};
    const Reach* reach = nullptr;
    std::uint64_t begin_seq = 0;  ///< global begin_tx order: fixes summation order
    bool live = false;            ///< current on live_slots_ (and near_, if partial)
    /// Memoized terms, indexed like reach->loss_db.
    mutable std::vector<RxTerms> terms;
    /// Bumped when the slot is claimed, which stales every entry of `terms`.
    std::uint32_t gen = 0;
  };

  /// A live partial frame on the near_ list of a node it covers.
  struct NearEntry {
    std::uint32_t slot = 0;
    std::uint32_t k = 0;  ///< the node's position in the frame's covered set
  };

  [[nodiscard]] MilliWatts accumulate(NodeId node, Mhz channel, FrameId exclude,
                                      Path path) const;
  /// Deliver on_tx_start/on_tx_end for the frame in `slot`, in registration
  /// order, to the listeners its reach lists (partial frames) or to every
  /// listener (covering frames, or culling off).
  void notify_listeners(std::uint32_t slot, bool start);
  /// How much of frame `f`'s energy leaks into a receiver tuned `delta` away
  /// on `path`: the receiver's filter curve, floored by the transmitter's
  /// own emission mask when one is attached (a wide transmitter puts power
  /// inside a narrow receiver's passband no matter how good the receiver's
  /// filter is).
  [[nodiscard]] Db leak_attenuation(const Frame& f, Mhz delta, Path path) const;
  /// `path`'s rejection curve at `delta`, looked up in rejection_table_.
  [[nodiscard]] Db rejection_db(Mhz delta, Path path) const;
  /// The leak of frame `f`, whose RSS at the receiver is `rss_dbm`, into a
  /// receiver tuned to `channel`, computed afresh.
  [[nodiscard]] Leak compute_leak(const Frame& f, double rss_dbm, Mhz channel, Path path) const;
  /// PL(distance(a, b)), computed afresh.
  [[nodiscard]] double pair_loss_db(NodeId a, NodeId b) const;
  /// RSS of `frame` at `rx` given the pair loss between them.
  [[nodiscard]] double rss_with_loss(const Frame& frame, NodeId rx, double loss_db) const;
  /// RSS of `frame` at `rx` from scratch.
  [[nodiscard]] Dbm compute_rss(const Frame& frame, NodeId rx) const {
    return Dbm{rss_with_loss(frame, rx, pair_loss_db(frame.src, rx))};
  }
  /// Where the frame in `slot` keeps its terms at `rx`: the rx index for a
  /// covering frame, else the rx's position in the covered set, or
  /// kUncovered.
  [[nodiscard]] std::uint32_t term_index(std::uint32_t slot, NodeId rx) const;
  /// The memoized terms of the frame in `slot` at `rx` (term index `k`),
  /// with the RSS filled.
  [[nodiscard]] RxTerms& terms(std::uint32_t slot, std::uint32_t k, NodeId rx) const;
  /// RSS of the frame in `slot` at `rx`, cached unless `k` is kUncovered.
  [[nodiscard]] double rss_dbm(std::uint32_t slot, std::uint32_t k, NodeId rx) const;
  /// What the frame in `slot` leaks into `rx` tuned to `channel`, cached
  /// unless `k` is kUncovered.
  [[nodiscard]] Leak leak(std::uint32_t slot, std::uint32_t k, NodeId rx, Mhz channel,
                          Path path) const;
  /// A frame's slot and its term index at one receiver.
  struct TermRef {
    std::uint32_t slot = 0;
    std::uint32_t k = 0;
  };
  /// Where `frame` keeps its terms at `rx`, or nullopt when it is off the
  /// air (e.g. a receiver finalizing after end_tx). A listener asking at its
  /// own node about the frame it is being told of skips the lookup.
  [[nodiscard]] std::optional<TermRef> locate(const Frame& frame, NodeId rx) const;

  /// Dense storage index of a registered node.
  [[nodiscard]] std::size_t local_index(NodeId node) const {
    assert(node < positions_.size());
    return static_cast<std::size_t>(node);
  }

  /// Noise floor minus the culling margin, in dBm: energy below this is
  /// treated as unobservable.
  [[nodiscard]] double cull_floor_dbm() const;
  /// Would a frame of influence radius `radius` reach every node, wherever
  /// in the bounding box both ends sit? Always, with culling off.
  [[nodiscard]] bool covers_box(double radius) const {
    return !config_.culling.enabled || box_diag_sq_ <= radius * radius;
  }
  /// The exact disc test: is `at` inside the influence disc of `af`?
  [[nodiscard]] bool in_disc(const ActiveFrame& af, Vec2 at) const {
    return distance_sq(at, positions_[af.frame.src]) <= af.reach->radius * af.reach->radius;
  }
  /// Throws std::logic_error with `message` while a frame is claimed: on
  /// the air, or being announced to the listeners.
  void require_no_frame(const char* message) const;
  /// The reach of a frame from `src` at `tx_power`, built on first use.
  const Reach& reach(NodeId src, Dbm tx_power);
  /// Drops every memoised reach (the geometry changed).
  void forget_reaches();
  /// Append the live partial frame in `slot` to / remove it from the near_
  /// lists of its covered nodes.
  void link(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  /// Calls `visit(slot, k)` for every frame relevant to `node`, with `k` its
  /// term index there, until a call returns true, and returns whether one
  /// did. The relevant frames are all live frames when forced exhaustive,
  /// else the frames whose influence disc covers `node`. Either way they
  /// come in begin_seq order, so floating-point accumulation replays
  /// begin_tx order exactly.
  template <typename Visit>
  bool any_candidate(NodeId node, bool force_exhaustive, Visit visit) const;
#ifndef NDEBUG
  /// Debug cross-check of the live list and of near_[node] against the
  /// frame slots filtered by the exact disc test.
  void check_candidates(NodeId node) const;
  /// Debug cross-check of a reach from `src` against a fresh radius and a
  /// brute-force scan of the nodes and the registered listeners.
  void check_reach(NodeId src, const Reach& reach) const;
#endif

  /// A registration: a listener and the node it listens at. A removed
  /// registration keeps its place with a null listener.
  struct ListenerEntry {
    MediumListener* listener = nullptr;
    NodeId node = kNoNode;
  };

  MediumConfig config_;
  ShadowingField shadowing_;
  std::vector<Vec2> positions_;
  /// listening_[node]: the node has had a listener (it is then on the
  /// listener grid and in the covered sets of the partial reaches over it).
  std::vector<bool> listening_;
  /// In registration order, removed ones included.
  std::vector<ListenerEntry> listeners_;
  /// listeners_at_[node]: indices into listeners_ of the registrations at
  /// node, ascending.
  std::vector<std::vector<std::uint32_t>> listeners_at_;
  /// The current registrations of each listener, for remove_listener.
  std::unordered_multimap<const MediumListener*, std::uint32_t> registered_;
  FrameId next_frame_id_ = 1;

  // -- Reaches (see the header comment) -----------------------------------
  /// reaches_[src]: one reach per tx power `src` has sent at. Heap-held, so
  /// a frame's pointer survives a listener starting a frame mid-callback.
  std::vector<std::vector<std::unique_ptr<Reach>>> reaches_;
  bool reaches_empty_ = true;
  /// Every listening node, bucketed by position (culling on only).
  SpatialGrid listener_grid_;

  // -- Active set (slot pool, live list, per-node frame lists) -----------
  std::vector<ActiveFrame> frame_slots_;
  std::vector<std::uint32_t> free_frame_slots_;
  std::unordered_map<FrameId, std::uint32_t> slot_of_;
  /// The callback being made: a listener at `node` told of frame `frame`
  /// (slot `slot`, term index `k` there). Frame id 0: none.
  struct Announcement {
    FrameId frame = 0;
    std::uint32_t slot = 0;
    std::uint32_t k = 0;
    NodeId node = kNoNode;
  };
  Announcement announced_;
  std::size_t active_count_ = 0;
  std::uint64_t next_begin_seq_ = 0;
  /// One entry per frame made live, in begin_seq order. An entry goes stale
  /// when its frame ends (its slot may be reused later) and is swept in
  /// batches by end_tx.
  struct LiveEntry {
    std::uint64_t begin_seq = 0;
    std::uint32_t slot = 0;
  };
  [[nodiscard]] bool current(const LiveEntry& entry) const {
    const ActiveFrame& af = frame_slots_[entry.slot];
    return af.live && af.begin_seq == entry.begin_seq;
  }
  std::vector<LiveEntry> live_slots_;
  /// near_[node]: the live partial frames whose disc covers node, in
  /// begin_seq order.
  std::vector<std::vector<NearEntry>> near_;
  /// Live frames whose influence radius does not cover the bounding box.
  std::size_t partial_live_ = 0;
  /// Bounding box of the nodes, and its squared diagonal.
  Vec2 box_lo_{};
  Vec2 box_hi_{};
  double box_diag_sq_ = 0.0;

  /// Both rejection curves at each channel distance seen so far: at most
  /// one row per pair of channels in use, a handful in practice.
  struct RejectionRow {
    double delta_mhz = 0.0;
    Db attenuation[2];  ///< indexed by Path
  };
  mutable std::vector<RejectionRow> rejection_table_;
  /// to_milliwatts(noise_floor), the starting value of every accumulation.
  MilliWatts noise_mw_{};
};

}  // namespace nomc::phy
