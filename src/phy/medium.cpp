#include "phy/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace nomc::phy {
namespace {

/// A frame is culled at a receiver only once its strongest plausible RSS is
/// this many dB below the noise floor ("receive floor" = noise − margin).
constexpr double kCullMarginDb = 10.0;
/// Shadowing head-room, in sigmas, folded into the influence radius so a
/// lucky constructive fade cannot push a culled frame above the floor.
constexpr double kShadowCapSigma = 6.0;

}  // namespace

Medium::Medium(MediumConfig config)
    : config_{std::move(config)},
      shadowing_{config_.shadowing_sigma_db, config_.seed},
      noise_mw_{to_milliwatts(config_.noise_floor)} {
  // Cells as wide as a nominal 0 dBm transmitter's influence radius, so
  // building a reach touches ~3x3 cells.
  if (config_.culling.enabled) listener_grid_.reset(influence_radius_m(Dbm{0.0}));
}

double Medium::cull_floor_dbm() const { return config_.noise_floor.value - kCullMarginDb; }

double Medium::influence_radius_m(Dbm tx_power) const {
  const double shadow_cap = kShadowCapSigma * config_.shadowing_sigma_db;
  return config_.path_loss.distance_for_loss(Db{tx_power.value + shadow_cap - cull_floor_dbm()});
}

void Medium::require_no_frame(const char* message) const {
  // slot_of_ holds a frame from the start of its announcement on, so a
  // listener called for the first frame on the air is refused too.
  if (!slot_of_.empty()) throw std::logic_error{message};
}

NodeId Medium::add_node(Vec2 position) {
  assert(std::isfinite(position.x) && std::isfinite(position.y) &&
         "node coordinates must be finite");
  require_no_frame("Medium::add_node while a frame is on the air");
  forget_reaches();
  if (positions_.empty()) {
    box_lo_ = position;
    box_hi_ = position;
  }
  box_lo_ = {std::min(box_lo_.x, position.x), std::min(box_lo_.y, position.y)};
  box_hi_ = {std::max(box_hi_.x, position.x), std::max(box_hi_.y, position.y)};
  box_diag_sq_ = distance_sq(box_lo_, box_hi_);
  const auto node = static_cast<NodeId>(positions_.size());
  positions_.push_back(position);
  listening_.push_back(false);
  listeners_at_.emplace_back();
  reaches_.emplace_back();
  near_.emplace_back();
  return node;
}

Vec2 Medium::position(NodeId node) const { return positions_[local_index(node)]; }

void Medium::add_listener(MediumListener* listener, NodeId node) {
  assert(listener != nullptr);
  assert(node < positions_.size() && "listeners must listen at a registered node");
  require_no_frame("Medium::add_listener while a frame is on the air");
  forget_reaches();
  const auto index = static_cast<std::uint32_t>(listeners_.size());
  listeners_at_[node].push_back(index);
  listeners_.push_back({listener, node});
  registered_.emplace(listener, index);
  if (!listening_[node]) {
    listening_[node] = true;
    if (config_.culling.enabled) listener_grid_.insert(node, positions_[node]);
  }
}

void Medium::remove_listener(MediumListener* listener) {
  // Mark the registrations removed rather than erase them: every index into
  // listeners_ stays valid, so the reaches keep their listener lists.
  const auto [first, last] = registered_.equal_range(listener);
  for (auto it = first; it != last; ++it) listeners_[it->second].listener = nullptr;
  registered_.erase(first, last);
}

void Medium::forget_reaches() {
  if (reaches_empty_) return;
  for (std::vector<std::unique_ptr<Reach>>& of_src : reaches_) of_src.clear();
  reaches_empty_ = true;
}

const Medium::Reach& Medium::reach(NodeId src, Dbm tx_power) {
  std::vector<std::unique_ptr<Reach>>& of_src = reaches_[local_index(src)];
  for (const std::unique_ptr<Reach>& known : of_src) {
    if (known->tx_power_dbm == tx_power.value) {
#ifndef NDEBUG
      check_reach(src, *known);
#endif
      return *known;
    }
  }
  Reach& r = *of_src.emplace_back(std::make_unique<Reach>());
  reaches_empty_ = false;
  r.tx_power_dbm = tx_power.value;
  r.radius = influence_radius_m(tx_power);
  r.covers_all = covers_box(r.radius);
  if (r.covers_all) {
    r.loss_db.resize(positions_.size());
    for (NodeId rx = 0; rx < positions_.size(); ++rx) r.loss_db[rx] = pair_loss_db(src, rx);
  } else {
    const Vec2 at = positions_[local_index(src)];
    listener_grid_.for_each_in_disc(at, r.radius, [&](std::uint32_t node) {
      if (distance_sq(positions_[node], at) <= r.radius * r.radius) r.covered.push_back(node);
    });
    std::sort(r.covered.begin(), r.covered.end());
    r.loss_db.resize(r.covered.size());
    for (std::uint32_t k = 0; k < r.covered.size(); ++k) {
      r.loss_db[k] = pair_loss_db(src, r.covered[k]);
      for (const std::uint32_t index : listeners_at_[r.covered[k]]) {
        if (listeners_[index].listener != nullptr) r.listeners.push_back({index, k});
      }
    }
    // Node order is usually registration order already.
    const auto by_index = [](const Reach::Listener& x, const Reach::Listener& y) {
      return x.index < y.index;
    };
    if (!std::is_sorted(r.listeners.begin(), r.listeners.end(), by_index)) {
      std::sort(r.listeners.begin(), r.listeners.end(), by_index);
    }
  }
#ifndef NDEBUG
  check_reach(src, r);
#endif
  return r;
}

#ifndef NDEBUG
void Medium::check_reach(NodeId src, const Reach& reach) const {
  assert(reach.radius == influence_radius_m(Dbm{reach.tx_power_dbm}) && "stale reach radius");
  assert(reach.covers_all == covers_box(reach.radius) && "stale reach coverage");
  // Every listening node inside the disc, ascending (none listed for a
  // covering reach) ...
  const Vec2 at = positions_[local_index(src)];
  const double r_sq = reach.radius * reach.radius;
  std::vector<NodeId> covered;
  for (NodeId node = 0; node < positions_.size(); ++node) {
    if (!reach.covers_all && listening_[node] && distance_sq(positions_[node], at) <= r_sq) {
      covered.push_back(node);
    }
  }
  assert(covered == reach.covered && "reach differs from the brute-force disc scan");
  assert(reach.loss_db.size() == (reach.covers_all ? positions_.size() : covered.size()));
  for (std::size_t k = 0; k < reach.loss_db.size(); ++k) {
    assert(reach.loss_db[k] ==
               pair_loss_db(src, static_cast<NodeId>(reach.covers_all ? k : covered[k])) &&
           "stale reach path loss");
  }
  // ... and the registrations still in place at them, in registration order.
  std::vector<Reach::Listener> scan;
  for (std::uint32_t i = 0; i < listeners_.size(); ++i) {
    const auto it = std::lower_bound(covered.begin(), covered.end(), listeners_[i].node);
    if (listeners_[i].listener != nullptr && it != covered.end() && *it == listeners_[i].node) {
      scan.push_back({i, static_cast<std::uint32_t>(it - covered.begin())});
    }
  }
  std::vector<Reach::Listener> kept;
  for (const Reach::Listener& e : reach.listeners) {
    if (listeners_[e.index].listener != nullptr) kept.push_back(e);
  }
  assert(kept == scan && "reach listeners differ from the brute-force scan");
}
#endif

void Medium::link(std::uint32_t slot) {
  // Frames link only at begin_tx, so appending keeps each list in begin_seq
  // order.
  const std::vector<NodeId>& covered = frame_slots_[slot].reach->covered;
  for (std::uint32_t k = 0; k < covered.size(); ++k) near_[covered[k]].push_back({slot, k});
}

void Medium::unlink(std::uint32_t slot) {
  for (const NodeId node : frame_slots_[slot].reach->covered) {
    std::vector<NearEntry>& list = near_[node];
    // Frames end roughly in the order they began: the entry sits near the
    // front of a short list.
    const auto it = std::find_if(list.begin(), list.end(),
                                 [slot](const NearEntry& e) { return e.slot == slot; });
    assert(it != list.end() && "partial frame missing from a covered node's list");
    list.erase(it);
  }
}

double Medium::pair_loss_db(NodeId a, NodeId b) const {
  return config_.path_loss.loss(distance(positions_[local_index(a)], positions_[local_index(b)]))
      .value;
}

double Medium::rss_with_loss(const Frame& frame, NodeId rx, double loss_db) const {
  if (shadowing_.sigma_db() <= 0.0) {
    return (frame.tx_power - Db{loss_db}).value;
  }
  return (frame.tx_power - Db{loss_db} + shadowing_.sample(frame.id, rx)).value;
}

std::uint32_t Medium::term_index(std::uint32_t slot, NodeId rx) const {
  const Reach& reach = *frame_slots_[slot].reach;
  if (reach.covers_all) return static_cast<std::uint32_t>(local_index(rx));
  const auto it = std::lower_bound(reach.covered.begin(), reach.covered.end(), rx);
  if (it == reach.covered.end() || *it != rx) return kUncovered;
  return static_cast<std::uint32_t>(it - reach.covered.begin());
}

Medium::RxTerms& Medium::terms(std::uint32_t slot, std::uint32_t k, NodeId rx) const {
  const ActiveFrame& af = frame_slots_[slot];
  assert((af.reach->covers_all ? k == local_index(rx)
                               : k < af.reach->covered.size() && af.reach->covered[k] == rx) &&
         "frame-term index does not belong to this receiver");
  RxTerms& t = af.terms[k];
  if (t.gen != af.gen) {
    t = RxTerms{};
    t.gen = af.gen;
    t.rss_dbm = rss_with_loss(af.frame, rx, af.reach->loss_db[k]);
  }
#ifndef NDEBUG
  // Debug cross-check: a served entry must equal a fresh computation.
  assert(t.rss_dbm == compute_rss(af.frame, rx).value && "stale frame-term entry served");
#endif
  return t;
}

double Medium::rss_dbm(std::uint32_t slot, std::uint32_t k, NodeId rx) const {
  if (k == kUncovered) return compute_rss(frame_slots_[slot].frame, rx).value;
  return terms(slot, k, rx).rss_dbm;
}

Medium::Leak Medium::compute_leak(const Frame& f, double rss_dbm, Mhz channel,
                                  Path path) const {
  const Mhz delta = frequency_distance(f.channel, channel);
  const Dbm level = Dbm{rss_dbm} - leak_attenuation(f, delta, path);
  // Only inter-channel frames whose leaked energy clears the noise floor
  // count as overlap; a transmission on the far side of the band is not a
  // collision.
  return {to_milliwatts(level).value, level > config_.noise_floor};
}

Medium::Leak Medium::leak(std::uint32_t slot, std::uint32_t k, NodeId rx, Mhz channel,
                          Path path) const {
  const Frame& f = frame_slots_[slot].frame;
  if (k == kUncovered) return compute_leak(f, compute_rss(f, rx).value, channel, path);
  RxTerms& t = terms(slot, k, rx);
  if (t.channel_mhz[path] != channel.value) {
    t.channel_mhz[path] = channel.value;
    const Leak fresh = compute_leak(f, t.rss_dbm, channel, path);
    t.leaked_mw[path] = fresh.mw;
    t.above_noise[path] = fresh.above_noise;
  }
#ifndef NDEBUG
  // Debug cross-check against the untabulated curves and a fresh RSS.
  {
    const Mhz delta = frequency_distance(f.channel, channel);
    Db attenuation = (path == kDecode ? config_.rejection : config_.sensing_rejection)
                         .attenuation(delta);
    if (f.emission != nullptr) {
      attenuation = std::min(attenuation, f.emission->attenuation(delta));
    }
    const Dbm level = compute_rss(f, rx) - attenuation;
    assert(t.leaked_mw[path] == to_milliwatts(level).value && "stale leaked-power entry served");
    assert(t.above_noise[path] == (level > config_.noise_floor) && "stale noise-floor test served");
  }
#endif
  return {t.leaked_mw[path], t.above_noise[path]};
}

void Medium::notify_listeners(std::uint32_t slot, bool start) {
  // With culling on, a listener beyond the influence disc could not measure
  // the frame anyway (its RSS sits below the receive floor); skipping the
  // callback only moves where error-segment RNG draws are anchored. At paper
  // scale the disc exceeds the deployment span, so nothing is ever skipped
  // and the serial draw sequence is unchanged.
  //
  // Copied: a listener may begin a transmission, growing frame_slots_ (the
  // reach itself is heap-held and outlives every frame that uses it).
  const Frame frame = frame_slots_[slot].frame;
  const Reach& reach = *frame_slots_[slot].reach;
  // Restored at the end: a listener may start a frame, announced in turn.
  const Announcement outer = announced_;
  const auto call = [&](std::uint32_t index, std::uint32_t k) {
    const ListenerEntry& entry = listeners_[index];
    if (entry.listener == nullptr) return;  // removed
    announced_ = {frame.id, slot, k, entry.node};
    if (start) {
      entry.listener->on_tx_start(frame);
    } else {
      entry.listener->on_tx_end(frame);
    }
  };
  // No registration can join during the calls (add_listener throws), so
  // listeners_ keeps its size.
  if (reach.covers_all) {
    for (std::uint32_t i = 0; i < listeners_.size(); ++i) call(i, listeners_[i].node);
  } else {
    for (const Reach::Listener& e : reach.listeners) call(e.index, e.k);
  }
  announced_ = outer;
}

void Medium::begin_tx(const Frame& frame) {
  assert(frame.id != 0 && "allocate the frame id through the medium");
  assert(slot_of_.find(frame.id) == slot_of_.end() && "frame id already on the air");
  // Claim the slot and look up the reach before notifying, so the
  // listeners' rss() queries already fill the frame's terms; it stays off
  // the live list and the near_ lists until after, so listeners observe the
  // pre-change interference set.
  std::uint32_t slot;
  if (!free_frame_slots_.empty()) {
    slot = free_frame_slots_.back();
    free_frame_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(frame_slots_.size());
    frame_slots_.emplace_back();
  }
  {
    ActiveFrame& af = frame_slots_[slot];
    af.frame = frame;
    af.reach = &reach(frame.src, frame.tx_power);
    af.terms.resize(af.reach->loss_db.size());
    if (++af.gen == 0) {
      // Wrapped: an entry stamped 2^32 generations ago would look current.
      std::fill(af.terms.begin(), af.terms.end(), RxTerms{});
      af.gen = 1;
    }
  }
  slot_of_.emplace(frame.id, slot);
  notify_listeners(slot, /*start=*/true);
  // Re-reference: a listener may have begun a transmission, growing
  // frame_slots_.
  ActiveFrame& af = frame_slots_[slot];
  af.begin_seq = next_begin_seq_++;
  af.live = true;
  live_slots_.push_back({af.begin_seq, slot});
  if (!af.reach->covers_all) {
    ++partial_live_;
    link(slot);
  }
  ++active_count_;
}

void Medium::end_tx(FrameId id) {
  auto it = slot_of_.find(id);
  assert(it != slot_of_.end() && "end_tx for a frame that is not on the air");
  notify_listeners(it->second, /*start=*/false);
  // Re-find: a listener may have started a transmission, rehashing slot_of_.
  it = slot_of_.find(id);
  assert(it != slot_of_.end());
  const std::uint32_t slot = it->second;
  ActiveFrame& af = frame_slots_[slot];
  if (!af.reach->covers_all) {
    unlink(slot);
    --partial_live_;
  }
  af.live = false;
  free_frame_slots_.push_back(slot);
  slot_of_.erase(it);
  --active_count_;
  // The frame's live-list entry is now stale. Sweep stale entries once they
  // exceed a quarter of the live ones: amortised O(1) per end_tx, where
  // erasing in place would shift the whole list (frames end roughly in the
  // order they began, so the ended one sits near the front).
  if (live_slots_.size() - active_count_ > active_count_ / 4 + 4) {
    std::erase_if(live_slots_, [this](const LiveEntry& entry) { return !current(entry); });
  }
}

std::optional<Medium::TermRef> Medium::locate(const Frame& frame, NodeId rx) const {
  if (frame.id == announced_.frame && rx == announced_.node) {
    return TermRef{announced_.slot, announced_.k};
  }
  const auto it = slot_of_.find(frame.id);
  if (it == slot_of_.end()) return std::nullopt;
  return TermRef{it->second, term_index(it->second, rx)};
}

Dbm Medium::rss(const Frame& frame, NodeId rx) const {
  assert(rx < positions_.size());
  const std::optional<TermRef> at = locate(frame, rx);
  // Off the air (e.g. a receiver finalizing after end_tx): recompute; the
  // shadowing draw is a pure hash of (seed, frame, rx), so the value agrees.
  if (!at) return compute_rss(frame, rx);
  const double value = rss_dbm(at->slot, at->k, rx);
  // The entry belongs to the on-air frame with this id; the caller's copy
  // must describe the same transmission.
  assert(value == compute_rss(frame, rx).value && "rss() asked about a different frame");
  return Dbm{value};
}

Medium::Arrival Medium::arrival(const Frame& frame, NodeId rx, Mhz channel) const {
  assert(rx < positions_.size());
  const std::optional<TermRef> at = locate(frame, rx);
  if (!at) {
    const Dbm rss = compute_rss(frame, rx);
    const Leak fresh = compute_leak(frame, rss.value, channel, kDecode);
    return {rss, MilliWatts{fresh.mw}, fresh.above_noise};
  }
  const Dbm rss{rss_dbm(at->slot, at->k, rx)};
  assert(rss == compute_rss(frame, rx) && "arrival() asked about a different frame");
  const Leak decode = leak(at->slot, at->k, rx, channel, kDecode);
  return {rss, MilliWatts{decode.mw}, decode.above_noise};
}

Db Medium::rejection_db(Mhz delta, Path path) const {
  for (const RejectionRow& row : rejection_table_) {
    if (row.delta_mhz == delta.value) return row.attenuation[path];
  }
  rejection_table_.push_back({delta.value,
                              {config_.rejection.attenuation(delta),
                               config_.sensing_rejection.attenuation(delta)}});
  return rejection_table_.back().attenuation[path];
}

Db Medium::leak_attenuation(const Frame& f, Mhz delta, Path path) const {
  Db attenuation = rejection_db(delta, path);
  if (f.emission != nullptr) {
    // Wideband transmitter: whatever its emission mask puts into the
    // receiver's passband arrives regardless of the receiver's filter.
    attenuation = std::min(attenuation, f.emission->attenuation(delta));
  }
  return attenuation;
}

template <typename Visit>
bool Medium::any_candidate(NodeId node, bool force_exhaustive, Visit visit) const {
#ifndef NDEBUG
  check_candidates(node);
#endif
  const std::size_t index = local_index(node);
  // Every live frame partial (city scale): a listening node reads its own
  // list.
  if (partial_live_ == active_count_ && !force_exhaustive && listening_[index]) {
    for (const NearEntry& e : near_[index]) {
      if (visit(e.slot, e.k)) return true;
    }
    return false;
  }
  // Otherwise the live list: every frame when every one covers the box
  // (paper scale) or when forced exhaustive, else filtered by the exact disc
  // test (a mix of covering and partial frames, or a node that never had a
  // listener: it is on no list, and its terms are computed uncached).
  const Vec2 at = positions_[index];
  const bool filter = partial_live_ > 0 && !force_exhaustive;
  for (const LiveEntry& entry : live_slots_) {
    if (!current(entry)) continue;
    const ActiveFrame& af = frame_slots_[entry.slot];
    if (af.reach->covers_all) {
      if (visit(entry.slot, static_cast<std::uint32_t>(index))) return true;
    } else if (!filter || in_disc(af, at)) {
      if (visit(entry.slot, term_index(entry.slot, node))) return true;
    }
  }
  return false;
}

#ifndef NDEBUG
void Medium::check_candidates(NodeId node) const {
  // The live list's current entries are every live frame, once, in
  // begin_seq order; a covering frame passes the exact disc test at every
  // node (the monotone box argument) ...
  const Vec2 at = positions_[local_index(node)];
  std::size_t live = 0;
  std::size_t partial = 0;
  std::vector<NearEntry> expected;
  for (std::size_t i = 0; i < live_slots_.size(); ++i) {
    assert((i == 0 || live_slots_[i - 1].begin_seq < live_slots_[i].begin_seq) &&
           "live list out of begin_seq order");
    const LiveEntry& entry = live_slots_[i];
    if (!current(entry)) continue;
    ++live;
    const ActiveFrame& af = frame_slots_[entry.slot];
    if (af.reach->covers_all) {
      assert((!config_.culling.enabled || in_disc(af, at)) &&
             "a covering frame fails the disc test");
      continue;
    }
    ++partial;
    if (in_disc(af, at)) {
      expected.push_back({entry.slot, term_index(entry.slot, node)});
    }
  }
  assert(live == active_count_ && "live list lost or duplicated a frame");
  assert(partial == partial_live_ && "partial-frame count drifted");
  // ... and the node's list is exactly the live partial frames that cover
  // it, filtered from the live list, with its covered-set positions. A node
  // that never had a listener is on no list: its reads filter the live list.
  const std::vector<NearEntry>& near = near_[local_index(node)];
  if (!listening_[local_index(node)]) {
    assert(near.empty() && "a node that never had a listener is on a frame's list");
    return;
  }
  assert(near.size() == expected.size() && "near list differs from the live-list filter");
  for (std::size_t i = 0; i < near.size(); ++i) {
    assert(near[i].slot == expected[i].slot && near[i].k == expected[i].k &&
           expected[i].k != kUncovered &&
           "near list differs from the live-list filter");
  }
}
#endif

MilliWatts Medium::accumulate(NodeId node, Mhz channel, FrameId exclude, Path path) const {
  MilliWatts total = noise_mw_;
  any_candidate(node, /*force_exhaustive=*/false, [&](std::uint32_t slot, std::uint32_t k) {
    const Frame& f = frame_slots_[slot].frame;
    // A node never senses its own signal.
    if (f.id != exclude && f.src != node) {
      total += MilliWatts{leak(slot, k, node, channel, path).mw};
    }
    return false;
  });
  return total;
}

Dbm Medium::sense_energy(NodeId node, Mhz channel) const {
  // CCA is an energy read: only the analog filter attenuates neighbours.
  return to_dbm(accumulate(node, channel, /*exclude=*/0, kSensing));
}

MilliWatts Medium::interference_mw(NodeId rx, Mhz channel, FrameId exclude) const {
  // Decoding interference: filter + despreading gain both reject neighbours.
  return accumulate(rx, channel, exclude, kDecode);
}

bool Medium::carrier_present(NodeId node, Mhz channel, Dbm sensitivity) const {
  // Culling guarantees frames outside the candidate set sit below the
  // receive floor; a detector tuned below that floor could still hear them,
  // so such a query scans every live frame instead of trusting the discs.
  const bool force_exhaustive = sensitivity.value < cull_floor_dbm();
  return any_candidate(node, force_exhaustive, [&](std::uint32_t slot, std::uint32_t k) {
    const Frame& f = frame_slots_[slot].frame;
    return f.src != node && same_channel(f.channel, channel) &&
           Dbm{rss_dbm(slot, k, node)} >= sensitivity;
  });
}

Medium::Overlap Medium::overlap(NodeId rx, Mhz channel, FrameId exclude) const {
  // A culled frame's RSS is below noise − margin, so it can neither clear
  // the inter-channel noise-floor test nor meaningfully collide co-channel;
  // the candidate set suffices. The walk and its exclusions are
  // accumulate()'s, so the decode-path sum comes out the same double.
  Overlap result;
  result.interference_mw = noise_mw_;
  any_candidate(rx, /*force_exhaustive=*/false, [&](std::uint32_t slot, std::uint32_t k) {
    const Frame& f = frame_slots_[slot].frame;
    if (f.id == exclude || f.src == rx) return false;
    const Leak decode = leak(slot, k, rx, channel, kDecode);
    result.interference_mw += MilliWatts{decode.mw};
    if (same_channel(f.channel, channel)) {
      result.co = true;
    } else if (decode.above_noise) {
      result.inter = true;
    }
    return false;
  });
  return result;
}

}  // namespace nomc::phy
