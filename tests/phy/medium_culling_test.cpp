// Spatial interference culling: the determinism contract.
//
// Culling is only allowed to make the medium faster, never different, at
// paper scale: the influence radius is derived so that a deployment smaller
// than the radius culls nothing, and the candidate-set summation replays
// begin_tx order. These tests drive a culled and an exhaustive medium
// through identical histories and require every query to agree BIT FOR BIT
// (EXPECT_EQ on doubles, no tolerance) — the property that keeps the golden
// stores byte-stable. City-scale tests then pin that far-field frames really
// are dropped within the documented error bound, and that every answer and
// every listener callback equals a brute-force filter of the live frames by
// the exact disc test.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
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
        ASSERT_EQ(bits(a.interference_mw.value), bits(b.interference_mw.value));
        const Medium::Arrival x = warm.arrival(frame, node, channel);
        const Medium::Arrival y = fresh.arrival(frame, node, channel);
        ASSERT_EQ(bits(x.rss.value), bits(y.rss.value));
        ASSERT_EQ(bits(x.interference.value), bits(y.interference.value));
        ASSERT_EQ(x.audible, y.audible);
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
  // Warm them with interleaved queries through a history in which a frame
  // claims an ended frame's recycled slot, then ask a receiver about a
  // second channel mid-frame, and require every answer to equal a medium
  // that replays the history cold, bit for bit. The mix includes a wideband
  // frame (emission mask floors the rejection) and a frame from a fourth,
  // far source, so four transmitters overlap.
  const ChannelRejection wide_mask{std::vector<ChannelRejection::Anchor>{
      {Mhz{0.0}, Db{0.0}}, {Mhz{8.0}, Db{0.0}}, {Mhz{11.0}, Db{20.0}}, {Mhz{30.0}, Db{45.0}}}};
  Medium warm{config_with(true)};
  const NodeId a = warm.add_node({0.0, 0.0});
  const NodeId b = warm.add_node({10.0, 0.0});
  const NodeId c = warm.add_node({0.0, 15.0});
  const NodeId d = warm.add_node({6.0, 6.0});
  const NodeId e = warm.add_node({20.0, 5.0});

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
  const Frame far = make(e, kChannels[2], Dbm{-2.0});
  const Frame late = make(d, kChannels[0], Dbm{-5.0});
  const Frame reuse = make(d, kChannels[2], Dbm{-1.0});  // claims late's recycled slot

  // The begin/end history, replayed verbatim on the fresh medium.
  struct Step {
    bool begin;
    Frame frame;
  };
  const std::vector<Step> history = {
      {true, to_c}, {true, wideband}, {true, far}, {true, late}, {false, late}, {true, reuse}};

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

  // Mid-frame, the receiver is asked about a second channel.
  (void)warm.sense_energy(c, kChannels[1]);
  (void)warm.interference(c, kChannels[1], to_c.id);

  Medium fresh{config_with(true)};
  EXPECT_EQ(fresh.add_node({0.0, 0.0}), a);
  EXPECT_EQ(fresh.add_node({10.0, 0.0}), b);
  EXPECT_EQ(fresh.add_node({0.0, 15.0}), c);
  EXPECT_EQ(fresh.add_node({6.0, 6.0}), d);
  EXPECT_EQ(fresh.add_node({20.0, 5.0}), e);
  for (const Step& step : history) {
    if (step.begin) {
      fresh.begin_tx(step.frame);
    } else {
      fresh.end_tx(step.frame.id);
    }
  }
  expect_bitwise_same_answers(warm, fresh, on_air);
}

TEST(MediumCulling, LiveListAndNearListsAgreeAsFramesStopCoveringTheField) {
  // While every live frame's influence radius spans the nodes' bounding-box
  // diagonal, queries read the ordered live list; once one does not, they
  // read the per-node lists of partial frames at listening nodes and filter
  // the live list by the disc test elsewhere (and, with both kinds live,
  // everywhere). Build a field where low-power
  // frames from the centre reach every node yet do not cover the diagonal,
  // so the culled medium switches paths while culling nothing, and require
  // it to equal a culling-off medium bit for bit in every phase.
  TwinMediums twins;
  const double r_hi = twins.culled.influence_radius_m(Dbm{0.0});
  const double r_lo = twins.culled.influence_radius_m(Dbm{-5.0});
  // Corners at (±h, ±h): the diagonal 2·√2·h lies between the two radii,
  // so only full-power frames cover it, and every corner is √2·h < r_lo from
  // the centre.
  const double half_diag = (r_lo + r_hi) / 4.0;
  const double h = half_diag / std::sqrt(2.0);
  ASSERT_LT(2.0 * half_diag, r_hi);
  ASSERT_GT(2.0 * half_diag, r_lo);
  ASSERT_LT(half_diag, r_lo);
  const NodeId a = twins.add_node({-h, -h});
  const NodeId b = twins.add_node({h, h});
  twins.add_node({-h, h});
  twins.add_node({h, -h});
  const NodeId c0 = twins.add_node({0.0, 0.0});
  const NodeId c1 = twins.add_node({3.0, -2.0});
  const NodeId c2 = twins.add_node({-4.0, 1.0});
  // Listeners at three of the seven nodes: their reads take the lists, the
  // other four nodes' the filtered live list.
  struct Silent final : MediumListener {
    void on_tx_start(const Frame&) override {}
    void on_tx_end(const Frame&) override {}
  } silent;
  for (const NodeId node : {a, c0, c1}) twins.culled.add_listener(&silent, node);

  auto expect_all_views = [&twins](const std::vector<Frame>& on_air) {
    twins.expect_identical_views(on_air);
    // A sub-floor carrier-sense threshold takes the forced-exhaustive path.
    for (NodeId node = 0; node < twins.culled.node_count(); ++node) {
      for (const Mhz channel : kChannels) {
        ASSERT_EQ(twins.culled.carrier_present(node, channel, Dbm{-200.0}),
                  twins.exhaustive.carrier_present(node, channel, Dbm{-200.0}));
      }
    }
  };

  // Phase 1: covering frames only (live-list path).
  std::vector<Frame> on_air;
  on_air.push_back(twins.begin(a, kChannels[0]));
  on_air.push_back(twins.begin(c0, kChannels[1]));
  expect_all_views(on_air);
  // Phase 2: low-power centre frames join (mixed path, nothing culled).
  on_air.push_back(twins.begin(c1, kChannels[0], Dbm{-5.0}));
  on_air.push_back(twins.begin(b, kChannels[2]));
  on_air.push_back(twins.begin(c2, kChannels[2], Dbm{-5.0}));
  expect_all_views(on_air);
  // Phase 3: the low-power and corner frames end, a full-power centre frame
  // starts (back to the live list, all sources now near the centre).
  for (const Frame& frame : on_air) {
    if (frame.src != c0) twins.end(frame.id);
  }
  std::erase_if(on_air, [c0](const Frame& frame) { return frame.src != c0; });
  on_air.push_back(twins.begin(c2, kChannels[0]));
  expect_all_views(on_air);
  for (const Frame& frame : on_air) twins.end(frame.id);
  expect_all_views({});
  twins.culled.remove_listener(&silent);
}

TEST(MediumCulling, CityScaleAggregateErrorStaysWithinDocumentedBound) {
  // docs/scaling.md bounds what culling costs a receiver: culled frames sit
  // below the receive floor, ≤ 0.41 dB in aggregate. Check that against the
  // dense medium on a 2,000-node city (50 m grid, urban n = 3.5, six
  // channels, one node in six on the air at 0 dBm) where the influence
  // radius is a small fraction of the field, so the partial frames really
  // cull.
  constexpr int kNodes = 2000;
  constexpr int kSide = 45;
  MediumConfig config = config_with(true);
  config.path_loss = LogDistancePathLoss{3.5, Db{40.0}, 1.0};
  Medium culled{config};
  config.culling.enabled = false;
  Medium dense{config};
  std::vector<Mhz> channels;
  for (int i = 0; i < kNodes; ++i) {
    const Vec2 at{static_cast<double>(i % kSide) * 50.0, static_cast<double>(i / kSide) * 50.0};
    culled.add_node(at);
    dense.add_node(at);
    channels.push_back(Mhz{2445.0 + 3.0 * static_cast<double>(i % 6)});
  }
  ASSERT_LT(culled.influence_radius_m(Dbm{0.0}), 0.1 * 50.0 * kSide);
  sim::SplitMix64 mix{17};
  int on_air = 0;
  for (NodeId node = 0; node < static_cast<NodeId>(kNodes); ++node) {
    if (mix.next() % 6 != 0) continue;
    Frame frame;
    frame.id = culled.allocate_frame_id();
    frame.src = node;
    frame.channel = channels[node];
    frame.tx_power = Dbm{0.0};
    frame.psdu_bytes = 100;
    culled.begin_tx(frame);
    dense.begin_tx(frame);
    ++on_air;
  }
  ASSERT_GT(on_air, 250);

  double worst_db = 0.0;
  int differing = 0;
  for (NodeId node = 0; node < static_cast<NodeId>(kNodes); ++node) {
    const Mhz own = channels[node];
    const Mhz neighbour = channels[(node + 1) % kNodes];
    const double errors[] = {
        dense.sense_energy(node, own).value - culled.sense_energy(node, own).value,
        dense.interference(node, own, 0).value - culled.interference(node, own, 0).value,
        dense.interference(node, neighbour, 0).value -
            culled.interference(node, neighbour, 0).value,
    };
    for (const double error : errors) {
      // Culling only ever drops energy: the dense reading is never lower.
      ASSERT_GE(error, 0.0) << "culled medium read more energy at node " << node;
      worst_db = std::max(worst_db, error);
      if (error > 0.0) ++differing;
    }
  }
  EXPECT_GT(differing, 0) << "nothing was culled; the field exercises no partial frame";
  EXPECT_LE(worst_db, 0.41) << "aggregate culling error above the documented bound";
  RecordProperty("worst_db_x1e6", static_cast<int>(worst_db * 1e6));
}

/// One listener callback as a medium delivered it.
struct Notification {
  int listener = 0;
  bool start = false;
  FrameId frame = 0;
  friend bool operator==(const Notification&, const Notification&) = default;
};

class LoggingListener final : public MediumListener {
 public:
  LoggingListener(int id, std::vector<Notification>& log) : id_{id}, log_{log} {}
  void on_tx_start(const Frame& frame) override { log_.push_back({id_, true, frame.id}); }
  void on_tx_end(const Frame& frame) override { log_.push_back({id_, false, frame.id}); }

 private:
  int id_;
  std::vector<Notification>& log_;
};

/// The culled medium's contract, computed the slow way: every live frame in
/// begin order, kept if the receiver lies inside its influence disc (the
/// exact `distance² ≤ R²` test at the current positions), every RSS
/// computed from the propagation model. No grid, no lists, no caches.
struct DiscOracle {
  /// The receive floor sits this far below the noise floor (docs/scaling.md).
  static constexpr double kReceiveFloorMarginDb = 10.0;

  struct Live {
    Frame frame;
    double radius = 0.0;
  };

  explicit DiscOracle(const MediumConfig& c)
      : config{c}, shadowing{c.shadowing_sigma_db, c.seed} {}

  [[nodiscard]] bool covers(const Live& f, NodeId node) const {
    return distance_sq(positions[node], positions[f.frame.src]) <= f.radius * f.radius;
  }
  [[nodiscard]] Dbm rss(const Frame& f, NodeId rx) const {
    const Db loss = config.path_loss.loss(distance(positions[f.src], positions[rx]));
    return f.tx_power - loss + shadowing.sample(f.id, rx);
  }
  [[nodiscard]] double energy(NodeId node, Mhz channel, FrameId exclude,
                              const ChannelRejection& rejection) const {
    MilliWatts total = to_milliwatts(config.noise_floor);
    for (const Live& f : live) {
      if (f.frame.id == exclude || f.frame.src == node || !covers(f, node)) continue;
      const Mhz delta = frequency_distance(f.frame.channel, channel);
      total += to_milliwatts(rss(f.frame, node) - rejection.attenuation(delta));
    }
    return to_dbm(total).value;
  }
  [[nodiscard]] Medium::Overlap overlap(NodeId rx, Mhz channel, FrameId exclude) const {
    Medium::Overlap result;
    for (const Live& f : live) {
      if (f.frame.id == exclude || f.frame.src == rx || !covers(f, rx)) continue;
      if (same_channel(f.frame.channel, channel)) {
        result.co = true;
      } else {
        const Mhz delta = frequency_distance(f.frame.channel, channel);
        result.inter = result.inter || rss(f.frame, rx) - config.rejection.attenuation(delta) >
                                           config.noise_floor;
      }
    }
    return result;
  }
  [[nodiscard]] bool carrier(NodeId node, Mhz channel, Dbm sensitivity) const {
    const bool exhaustive = sensitivity.value < config.noise_floor.value - kReceiveFloorMarginDb;
    for (const Live& f : live) {
      if (!exhaustive && !covers(f, node)) continue;
      if (f.frame.src != node && same_channel(f.frame.channel, channel) &&
          rss(f.frame, node) >= sensitivity) {
        return true;
      }
    }
    return false;
  }

  MediumConfig config;
  ShadowingField shadowing;
  std::vector<Vec2> positions;
  std::vector<Live> live;  ///< begin order
};

/// A culled medium driven in step with the DiscOracle: listeners that log
/// every callback, the callbacks the oracle expects, and a check of every
/// query and of the log against the oracle, bit for bit.
struct OracleRun {
  explicit OracleRun(const MediumConfig& c) : config{c}, medium{c}, oracle{c} {}
  OracleRun(const OracleRun&) = delete;
  OracleRun& operator=(const OracleRun&) = delete;
  ~OracleRun() {
    for (const auto& listener : listeners) medium.remove_listener(listener.get());
  }

  NodeId add_node(Vec2 at) {
    const NodeId id = medium.add_node(at);
    EXPECT_EQ(id, oracle.positions.size());
    oracle.positions.push_back(at);
    return id;
  }
  void listen_at(NodeId node) {
    const int id = static_cast<int>(listeners.size());
    listeners.push_back(std::make_unique<LoggingListener>(id, log));
    medium.add_listener(listeners.back().get(), node);
    registered.emplace_back(id, node);
  }
  void expect_notifications(const DiscOracle::Live& f, bool start) {
    for (const auto& [id, node] : registered) {
      if (oracle.covers(f, node)) expected_log.push_back({id, start, f.frame.id});
    }
  }
  FrameId begin(NodeId src, Mhz channel, Dbm power) {
    Frame frame;
    frame.id = medium.allocate_frame_id();
    frame.src = src;
    frame.channel = channel;
    frame.tx_power = power;
    frame.psdu_bytes = 100;
    const DiscOracle::Live live{frame, medium.influence_radius_m(power)};
    expect_notifications(live, /*start=*/true);
    medium.begin_tx(frame);
    oracle.live.push_back(live);
    return frame.id;
  }
  void end(FrameId id) {
    const auto it = std::find_if(oracle.live.begin(), oracle.live.end(),
                                 [id](const DiscOracle::Live& f) { return f.frame.id == id; });
    ASSERT_NE(it, oracle.live.end());
    expect_notifications(*it, /*start=*/false);
    medium.end_tx(id);
    oracle.live.erase(it);
  }
  void expect_oracle_answers(int step) {
    ASSERT_EQ(medium.active_count(), oracle.live.size());
    for (NodeId node = 0; node < medium.node_count(); ++node) {
      for (const Mhz channel : kChannels) {
        ASSERT_EQ(bits(medium.sense_energy(node, channel).value),
                  bits(oracle.energy(node, channel, 0, config.sensing_rejection)))
            << "sense_energy at node " << node << ", step " << step;
        ASSERT_EQ(bits(medium.interference(node, channel, 0).value),
                  bits(oracle.energy(node, channel, 0, config.rejection)))
            << "interference at node " << node << ", step " << step;
        const Medium::Overlap a = medium.overlap(node, channel, 0);
        const Medium::Overlap b = oracle.overlap(node, channel, 0);
        ASSERT_EQ(a.co, b.co) << "node " << node << ", step " << step;
        ASSERT_EQ(a.inter, b.inter) << "node " << node << ", step " << step;
        // overlap() walks interference()'s frames in its order: the same sum.
        ASSERT_EQ(bits(a.interference_mw.value),
                  bits(medium.interference_mw(node, channel, 0).value))
            << "overlap sum at node " << node << ", step " << step;
        for (const Dbm sensitivity : {Dbm{-77.0}, Dbm{-200.0}}) {
          ASSERT_EQ(medium.carrier_present(node, channel, sensitivity),
                    oracle.carrier(node, channel, sensitivity))
              << "carrier_present at node " << node << ", step " << step;
        }
      }
      for (const DiscOracle::Live& f : oracle.live) {
        ASSERT_EQ(bits(medium.interference(node, f.frame.channel, f.frame.id).value),
                  bits(oracle.energy(node, f.frame.channel, f.frame.id, config.rejection)))
            << "interference excluding frame " << f.frame.id << " at node " << node;
        ASSERT_EQ(bits(medium.rss(f.frame, node).value), bits(oracle.rss(f.frame, node).value))
            << "rss of frame " << f.frame.id << " at node " << node;
      }
    }
    ASSERT_EQ(log, expected_log) << "listener callbacks diverged by step " << step;
  }

  MediumConfig config;
  Medium medium;
  DiscOracle oracle;
  std::vector<Notification> log;
  std::vector<Notification> expected_log;
  std::vector<std::unique_ptr<LoggingListener>> listeners;
  std::vector<std::pair<int, NodeId>> registered;  ///< (listener, node), registration order
};

MediumConfig city_config() {
  MediumConfig config = config_with(true);
  config.path_loss = LogDistancePathLoss{3.5, Db{40.0}, 1.0};
  return config;
}

TEST(MediumCulling, EveryQueryMatchesABruteForceDiscFilterThroughCityChurn) {
  // A random begin/end history on a 1 km city field where the 0 dBm frames
  // cover a ~190 m disc (partial frames: the per-node lists, and the live
  // list for nodes without a listener) and one 35 dBm frame covers the
  // whole field (the mixed path). Mid-flight a node loses its only
  // listener: it keeps listening, so its frame lists stay as they are, but
  // that listener hears nothing more. After every step each query must
  // equal the brute-force oracle bit for bit, and the listener callbacks
  // must be exactly the oracle's: the registered listeners inside the disc,
  // in registration order.
  OracleRun run{city_config()};
  sim::SplitMix64 mix{4242};
  auto coord = [&mix] { return static_cast<double>(mix.next() % 100'000) / 100.0; };
  for (int i = 0; i < 90; ++i) run.add_node({coord(), coord()});
  const Dbm big_power{35.0};
  ASSERT_GT(run.medium.influence_radius_m(big_power), std::sqrt(2.0) * 1000.0);
  ASSERT_LT(run.medium.influence_radius_m(Dbm{0.0}), 250.0);

  // A listener at every node but every sixth, registered out of node order
  // (a stride-37 walk), plus a second one at node 14.
  for (int i = 0; i <= 90; ++i) {
    const NodeId node = i < 90 ? static_cast<NodeId>(i * 37 % 90) : 14;
    if (node % 6 != 5) run.listen_at(node);
  }

  FrameId big = 0;
  std::size_t removed_at = 0;  // log size when listener 4 was removed
  for (int step = 0; step < 80; ++step) {
    if (step == 10) {
      big = run.begin(45, kChannels[1], big_power);
    } else if (step == 29) {
      run.begin(58, kChannels[0], Dbm{0.0});  // a frame whose disc holds node 58
    } else if (step == 30) {
      // Node 58's only listener, while that frame is on the air.
      ASSERT_EQ(run.registered[4].second, 58u);
      ASSERT_EQ(run.oracle.live.back().frame.src, 58u);
      run.medium.remove_listener(run.listeners[4].get());
      std::erase_if(run.registered, [](const auto& entry) { return entry.first == 4; });
      removed_at = run.log.size();
    } else if (step == 50) {
      run.end(big);
    } else if (run.oracle.live.size() < 14 && mix.next() % 3 != 0) {
      const auto src = static_cast<NodeId>(mix.next() % 90);
      const Dbm power{-5.0 * static_cast<double>(mix.next() % 3)};  // 0, -5, -10 dBm
      run.begin(src, kChannels[mix.next() % 3], power);
    } else if (!run.oracle.live.empty()) {
      // Any live frame but the big one: ends out of begin order too.
      const DiscOracle::Live& f = run.oracle.live[mix.next() % run.oracle.live.size()];
      if (f.frame.id != big) run.end(f.frame.id);
    }
    run.expect_oracle_answers(step);
  }
  while (!run.oracle.live.empty()) run.end(run.oracle.live.front().frame.id);
  run.expect_oracle_answers(80);
  EXPECT_GT(run.log.size(), 500u) << "too few callbacks to pin the notification order";
  ASSERT_GT(removed_at, 0u);
  EXPECT_TRUE(std::none_of(run.log.begin() + static_cast<std::ptrdiff_t>(removed_at),
                           run.log.end(),
                           [](const Notification& n) { return n.listener == 4; }))
      << "a removed listener was called";
}

TEST(MediumCulling, OneSourceAlternatingTwoPowersKeepsAReachPerPower) {
  // A reach is keyed by (source, tx power): a source that alternates a
  // 0 dBm and a -10 dBm frame, overlapping, must give each frame its own
  // disc. Listener 1 sits between the two radii, so it hears only the 0 dBm
  // frames, and its reads see only them; the nodes beside the source hear
  // both. Checked against the brute-force oracle after every step.
  OracleRun run{city_config()};
  const double r_hi = run.medium.influence_radius_m(Dbm{0.0});
  const double r_lo = run.medium.influence_radius_m(Dbm{-10.0});
  ASSERT_LT(r_lo + 20.0, r_hi);
  const NodeId src = run.add_node({0.0, 0.0});
  const NodeId between = run.add_node({(r_lo + r_hi) / 2.0, 0.0});
  const NodeId near = run.add_node({10.0, 5.0});
  run.add_node({2.0 * r_hi, 0.0});  // stretches the box: no frame covers it
  run.listen_at(near);
  run.listen_at(between);
  run.listen_at(src);

  std::vector<FrameId> on_air;
  for (int step = 0; step < 8; ++step) {
    const Dbm power{step % 2 == 0 ? 0.0 : -10.0};
    on_air.push_back(run.begin(src, kChannels[step % 3], power));
    run.expect_oracle_answers(step);
    if (on_air.size() == 3) {
      run.end(on_air.front());
      on_air.erase(on_air.begin());
      run.expect_oracle_answers(step);
    }
  }
  for (const FrameId id : on_air) run.end(id);
  run.expect_oracle_answers(8);
  EXPECT_EQ(std::count_if(run.log.begin(), run.log.end(),
                          [](const Notification& n) { return n.listener == 1; }),
            8)
      << "the listener between the radii hears only the four 0 dBm frames";
}

/// Twin mediums with a logging listener per registration on each: with
/// nothing culled, both must tell the same listeners of the same frames in
/// the same order.
struct ListeningTwins : TwinMediums {
  void listen_at(NodeId node) {
    const int id = static_cast<int>(culled_listeners.size());
    culled_listeners.push_back(std::make_unique<LoggingListener>(id, culled_log));
    exhaustive_listeners.push_back(std::make_unique<LoggingListener>(id, exhaustive_log));
    culled.add_listener(culled_listeners.back().get(), node);
    exhaustive.add_listener(exhaustive_listeners.back().get(), node);
  }
  void expect_identical(const std::vector<Frame>& on_air) {
    expect_identical_views(on_air);
    ASSERT_EQ(culled_log, exhaustive_log);
  }
  void end_all(std::vector<Frame>& on_air) {
    for (const Frame& frame : on_air) end(frame.id);
    on_air.clear();
    expect_identical(on_air);
  }

  std::vector<Notification> culled_log;
  std::vector<Notification> exhaustive_log;
  std::vector<std::unique_ptr<LoggingListener>> culled_listeners;
  std::vector<std::unique_ptr<LoggingListener>> exhaustive_listeners;
};

/// Half the diagonal of a square field whose -5 dBm frames from near the
/// centre are partial yet reach every node (see
/// LiveListAndNearListsAgreeAsFramesStopCoveringTheField).
double partial_half_diagonal(const Medium& medium) {
  const double r_hi = medium.influence_radius_m(Dbm{0.0});
  const double r_lo = medium.influence_radius_m(Dbm{-5.0});
  const double half_diag = (r_lo + r_hi) / 4.0;
  EXPECT_GT(2.0 * half_diag, r_lo);
  EXPECT_LT(half_diag + 10.0, r_lo);
  return half_diag;
}

TEST(MediumCulling, ListenerJoiningBetweenFramesRebuildsTheReachesItFallsIn) {
  // A partial frame's reach lists the listening nodes in its disc and their
  // listeners. A listener added between frames, at a node already in a
  // built reach or at one not listening yet, must hear the source's next
  // frame, and the newly listening node must read it.
  ListeningTwins twins;
  const double h = partial_half_diagonal(twins.culled) / std::sqrt(2.0);
  const NodeId a = twins.add_node({-h, -h});
  twins.add_node({h, h});
  const NodeId c0 = twins.add_node({0.0, 0.0});
  const NodeId c1 = twins.add_node({3.0, -2.0});
  const NodeId c2 = twins.add_node({-4.0, 1.0});
  twins.listen_at(a);
  twins.listen_at(c0);

  std::vector<Frame> on_air{twins.begin(c1, kChannels[0], Dbm{-5.0})};
  twins.expect_identical(on_air);
  twins.end_all(on_air);
  twins.listen_at(c2);  // not listening yet
  twins.listen_at(c0);  // listening, and in the built reach
  on_air.push_back(twins.begin(c1, kChannels[0], Dbm{-5.0}));
  on_air.push_back(twins.begin(c2, kChannels[1], Dbm{-5.0}));
  twins.expect_identical(on_air);
  twins.end_all(on_air);
  EXPECT_EQ(std::count_if(twins.culled_log.begin(), twins.culled_log.end(),
                          [](const Notification& n) { return n.listener >= 2; }),
            8)
      << "the late listeners hear both frames start and end";
}

TEST(MediumCulling, NodeGrowingTheBoxTurnsACoveringReachPartial) {
  // Whether a frame covers the nodes' bounding box is part of its reach. A
  // node added between frames that stretches the box past the radius must
  // turn the source's reach partial, and reads at the new node (no
  // listener: the live-list path) must see the source's next frame.
  ListeningTwins twins;
  const double h = partial_half_diagonal(twins.culled) / std::sqrt(2.0);
  const NodeId c0 = twins.add_node({0.0, 0.0});
  const NodeId c1 = twins.add_node({3.0, -2.0});
  const NodeId c2 = twins.add_node({-4.0, 1.0});
  for (const NodeId node : {c0, c1, c2}) twins.listen_at(node);

  std::vector<Frame> on_air{twins.begin(c1, kChannels[0], Dbm{-5.0})};  // covering
  twins.expect_identical(on_air);
  twins.end_all(on_air);
  twins.add_node({-h, -h});
  twins.add_node({h, h});
  on_air.push_back(twins.begin(c0, kChannels[1]));
  on_air.push_back(twins.begin(c1, kChannels[0], Dbm{-5.0}));  // now partial
  on_air.push_back(twins.begin(c2, kChannels[2], Dbm{-5.0}));
  twins.expect_identical(on_air);
  twins.end(on_air.front().id);
  on_air.erase(on_air.begin());
  twins.expect_identical(on_air);
  twins.end_all(on_air);
}

#ifndef NDEBUG
TEST(MediumCulling, NonFiniteCoordinatesFailThePrecondition) {
  // Node positions feed the grids' floor(x / cell) → int64_t cast,
  // undefined for NaN and infinities: add_node asserts.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(
      {
        Medium medium{config_with(true)};
        medium.add_node({kNan, 0.0});
      },
      "finite");
  EXPECT_DEATH(
      {
        Medium medium{config_with(false)};
        medium.add_node({0.0, -kInf});
      },
      "finite");
}
#endif

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
  // that query scans every live frame (exhaustive fallback).
  EXPECT_TRUE(culled.carrier_present(rx_c, kChannels[0], Dbm{-200.0}));
  EXPECT_FALSE(culled.carrier_present(rx_c, kChannels[0], Dbm{-77.0}));
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
