#include "phy/medium.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace nomc::phy {

Medium::Medium(MediumConfig config)
    : config_{std::move(config)},
      shadowing_{config_.shadowing_sigma_db, config_.seed},
      noise_mw_{to_milliwatts(config_.noise_floor)} {
  if (config_.culling.enabled) {
    double cell = config_.culling.cell_size_m;
    if (cell <= 0.0) cell = influence_radius_m(Dbm{0.0});
    grid_.reset(cell);
  }
}

double Medium::influence_radius_m(Dbm tx_power) const {
  const double shadow_cap = config_.culling.shadow_cap_sigma * config_.shadowing_sigma_db;
  return config_.path_loss.distance_for_loss(Db{tx_power.value + shadow_cap - cull_floor_dbm()});
}

NodeId Medium::add_node(Vec2 position) {
  if (positions_.empty()) {
    box_lo_ = position;
    box_hi_ = position;
  }
  positions_.push_back(position);
  epochs_.push_back(0);
  loss_cache_.emplace_back();
  grow_box(position);
  return static_cast<NodeId>(positions_.size() - 1);
}

void Medium::grow_box(Vec2 position) {
  const Vec2 lo{std::min(box_lo_.x, position.x), std::min(box_lo_.y, position.y)};
  const Vec2 hi{std::max(box_hi_.x, position.x), std::max(box_hi_.y, position.y)};
  if (lo == box_lo_ && hi == box_hi_) return;
  box_lo_ = lo;
  box_hi_ = hi;
  box_diag_sq_ = distance_sq(lo, hi);
  // The box only grows, so a live frame can only stop covering it.
  for (const LiveEntry& entry : live_slots_) {
    if (!current(entry)) continue;
    ActiveFrame& af = frame_slots_[entry.slot];
    if (af.covers_all && !covers_box(af.radius)) {
      af.covers_all = false;
      ++partial_live_;
    }
  }
}

Vec2 Medium::position(NodeId node) const { return positions_[local_index(node)]; }

void Medium::set_position(NodeId node, Vec2 position) {
  const std::size_t index = local_index(node);
  positions_[index] = position;
  // O(1) invalidation of every cached value involving the moved node: other
  // nodes' pair entries and every frame's terms at this node snapshot its
  // epoch and now fail the check; the node's own map is dropped outright
  // (capacity retained).
  ++epochs_[index];
  loss_cache_[index].clear();
  grow_box(position);
  // Re-bucket the mover's in-flight frames so the spatial index keeps
  // answering from current positions, and forget their terms at every rx.
  for (std::size_t i = 0; i < frame_slots_.size(); ++i) {
    ActiveFrame& af = frame_slots_[i];
    if (!af.live || af.frame.src != node) continue;
    af.terms.clear();
    if (config_.culling.enabled) {
      grid_.remove(static_cast<std::uint32_t>(i), af.src_pos);
      grid_.insert(static_cast<std::uint32_t>(i), position);
    }
    af.src_pos = position;
  }
}

double Medium::cached_loss_db(NodeId a, NodeId b) const {
  const std::size_t ai = local_index(a);
  const std::size_t bi = local_index(b);
  NodeValueMap::Entry& entry = loss_cache_[ai].find_or_insert(b);
  if (entry.key != b || entry.epoch != epochs_[bi]) {
    entry.key = b;
    entry.epoch = epochs_[bi];
    entry.value = config_.path_loss.loss(distance(positions_[ai], positions_[bi])).value;
  }
#ifndef NDEBUG
  // Debug cross-check: a served cache hit must equal a fresh computation —
  // i.e. no stale entry survives motion invalidation. (Release builds skip
  // this; it turns every hit into a recompute.)
  assert(entry.value == config_.path_loss.loss(distance(positions_[ai], positions_[bi])).value &&
         "stale path-loss cache entry served after node motion");
#endif
  return entry.value;
}

Dbm Medium::compute_rss(const Frame& frame, NodeId rx) const {
  const double loss = cached_loss_db(frame.src, rx);
  if (shadowing_.sigma_db() <= 0.0) {
    return frame.tx_power - Db{loss};
  }
  return frame.tx_power - Db{loss} + shadowing_.sample(frame.id, rx);
}

Medium::RxTerms& Medium::terms(std::uint32_t slot, NodeId rx) const {
  const ActiveFrame& af = frame_slots_[slot];
  const auto ri = static_cast<std::uint32_t>(local_index(rx));
  NodeMap<RxTerms>::Entry& entry = af.terms.find_or_insert(ri);
  if (entry.key != ri || entry.epoch != epochs_[ri]) {
    entry.key = ri;
    entry.epoch = epochs_[ri];
    entry.value = RxTerms{};
    entry.value.rss_dbm = compute_rss(af.frame, rx).value;
  }
#ifndef NDEBUG
  // Debug cross-check: a served entry must equal a fresh computation — no
  // stale RSS survives either endpoint moving.
  assert(entry.value.rss_dbm == compute_rss(af.frame, rx).value &&
         "stale frame-term entry served after node motion");
#endif
  return entry.value;
}

double Medium::leaked_mw(std::uint32_t slot, NodeId rx, Mhz channel, Path path) const {
  RxTerms& t = terms(slot, rx);
  const Frame& f = frame_slots_[slot].frame;
  if (t.channel_mhz[path] != channel.value) {
    t.channel_mhz[path] = channel.value;
    const Mhz delta = frequency_distance(f.channel, channel);
    t.leaked_mw[path] = to_milliwatts(Dbm{t.rss_dbm} - leak_attenuation(f, delta, path)).value;
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
    assert(t.leaked_mw[path] == to_milliwatts(compute_rss(f, rx) - attenuation).value &&
           "stale leaked-power entry served");
  }
#endif
  return t.leaked_mw[path];
}

void Medium::add_listener(MediumListener* listener, NodeId node) {
  assert(listener != nullptr);
  assert(node < positions_.size() && "listeners must listen at a registered node");
  listeners_.push_back({listener, node});
}

void Medium::remove_listener(MediumListener* listener) {
  listeners_.erase(std::remove_if(listeners_.begin(), listeners_.end(),
                                  [listener](const ListenerEntry& e) {
                                    return e.listener == listener;
                                  }),
                   listeners_.end());
}

void Medium::notify_listeners(const Frame& frame, Vec2 src_pos, double radius, bool start) {
  // With culling on, a listener beyond the influence disc could not measure
  // the frame anyway (its RSS sits below the receive floor); skipping the
  // callback only moves where error-segment RNG draws are anchored. At paper
  // scale the disc exceeds the deployment span, so nothing is ever skipped
  // and the serial draw sequence is unchanged.
  const bool cull = config_.culling.enabled;
  const double r2 = radius * radius;
  for (const ListenerEntry& e : listeners_) {
    if (cull && distance_sq(positions_[local_index(e.node)], src_pos) > r2) continue;
    if (start) {
      e.listener->on_tx_start(frame);
    } else {
      e.listener->on_tx_end(frame);
    }
  }
}

void Medium::begin_tx(const Frame& frame) {
  assert(frame.id != 0 && "allocate the frame id through the medium");
  assert(slot_of_.find(frame.id) == slot_of_.end() && "frame id already on the air");
  const Vec2 src_pos = positions_[local_index(frame.src)];
  const double radius = influence_radius_m(frame.tx_power);
  // Claim the slot before notifying, so the listeners' rss() queries already
  // fill the frame's terms; it stays out of gather() (not live, not in the
  // grid) until after, so listeners observe the pre-change interference set.
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
    af.src_pos = src_pos;
    af.radius = radius;
    af.terms.clear();
  }
  slot_of_.emplace(frame.id, slot);
  notify_listeners(frame, src_pos, radius, /*start=*/true);
  // Re-reference: a listener may have begun a transmission, growing
  // frame_slots_.
  ActiveFrame& af = frame_slots_[slot];
  af.begin_seq = next_begin_seq_++;
  af.live = true;
  af.covers_all = covers_box(af.radius);
  if (!af.covers_all) ++partial_live_;
  live_slots_.push_back({af.begin_seq, slot});
  if (config_.culling.enabled) {
    grid_.insert(slot, af.src_pos);
    max_active_radius_ = std::max(max_active_radius_, af.radius);
  }
  ++active_count_;
}

void Medium::end_tx(FrameId id) {
  auto it = slot_of_.find(id);
  assert(it != slot_of_.end() && "end_tx for a frame that is not on the air");
  // Copy before notifying: a listener may begin a transmission, growing
  // frame_slots_ and invalidating the reference.
  const Frame frame = frame_slots_[it->second].frame;
  const Vec2 src_pos = frame_slots_[it->second].src_pos;
  const double radius = frame_slots_[it->second].radius;
  notify_listeners(frame, src_pos, radius, /*start=*/false);
  // Re-find: a listener may have started a transmission, rehashing slot_of_.
  it = slot_of_.find(id);
  assert(it != slot_of_.end());
  const std::uint32_t slot = it->second;
  ActiveFrame& af = frame_slots_[slot];
  if (config_.culling.enabled) grid_.remove(slot, af.src_pos);
  af.live = false;
  if (!af.covers_all) --partial_live_;
  free_frame_slots_.push_back(slot);
  slot_of_.erase(it);
  --active_count_;
  if (active_count_ == 0) max_active_radius_ = 0.0;
  // The frame's live-list entry is now stale. Sweep stale entries once they
  // exceed a quarter of the live ones: amortised O(1) per end_tx, where
  // erasing in place would shift the whole list (frames end roughly in the
  // order they began, so the ended one sits near the front).
  if (live_slots_.size() - active_count_ > active_count_ / 4 + 4) {
    std::erase_if(live_slots_, [this](const LiveEntry& entry) { return !current(entry); });
  }
}

Dbm Medium::rss(const Frame& frame, NodeId rx) const {
  assert(rx < positions_.size());
  const auto it = slot_of_.find(frame.id);
  // Off the air (e.g. a receiver finalizing after end_tx): recompute; the
  // shadowing draw is a pure hash of (seed, frame, rx), so the value agrees.
  if (it == slot_of_.end()) return compute_rss(frame, rx);
  const double rss_dbm = terms(it->second, rx).rss_dbm;
  // The entry belongs to the on-air frame with this id; the caller's copy
  // must describe the same transmission.
  assert(rss_dbm == compute_rss(frame, rx).value && "rss() asked about a different frame");
  return Dbm{rss_dbm};
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

bool Medium::leaks_above_noise(const Frame& f, Dbm rss, Mhz channel) const {
  // Only inter-channel frames whose leaked energy clears the noise floor
  // count; a transmission on the far side of the band is not a collision.
  const Mhz delta = frequency_distance(f.channel, channel);
  return rss - leak_attenuation(f, delta, kDecode) > config_.noise_floor;
}

bool Medium::inter_channel_audible(const Frame& frame, NodeId rx, Mhz channel) const {
  return leaks_above_noise(frame, rss(frame, rx), channel);
}

void Medium::gather(NodeId node, bool ordered) const {
  scratch_.clear();
  const Vec2 at = positions_[local_index(node)];
  grid_.for_each_in_disc(at, max_active_radius_, [&](std::uint32_t slot) {
    const ActiveFrame& af = frame_slots_[slot];
    if (distance_sq(at, af.src_pos) <= af.radius * af.radius) {
      scratch_.emplace_back(af.begin_seq, slot);
    }
  });
  // begin_seq order == begin_tx order: the dense path accumulated frames in
  // insertion order, and float addition is order-sensitive, so replaying
  // that exact order keeps culled and exhaustive results bit-identical
  // whenever they see the same candidate set.
  if (ordered) std::sort(scratch_.begin(), scratch_.end());
}

template <typename Visit>
bool Medium::any_candidate(NodeId node, bool ordered, bool force_exhaustive, Visit visit) const {
  if (!config_.culling.enabled || force_exhaustive || partial_live_ == 0) {
#ifndef NDEBUG
    check_live_list(node);
#endif
    for (const LiveEntry& entry : live_slots_) {
      if (current(entry) && visit(entry.slot)) return true;
    }
    return false;
  }
  gather(node, ordered);
  for (const auto& candidate : scratch_) {
    if (visit(candidate.second)) return true;
  }
  return false;
}

#ifndef NDEBUG
void Medium::check_live_list(NodeId node) const {
  // The live list's current entries are every live frame, once, in
  // begin_seq order ...
  std::vector<std::uint32_t> current_slots;
  for (std::size_t i = 0; i < live_slots_.size(); ++i) {
    assert((i == 0 || live_slots_[i - 1].begin_seq < live_slots_[i].begin_seq) &&
           "live list out of begin_seq order");
    if (current(live_slots_[i])) current_slots.push_back(live_slots_[i].slot);
  }
  assert(current_slots.size() == active_count_ && "live list lost or duplicated a frame");
  // ... and while every live frame covers the deployment, they are exactly
  // the grid gather's sorted candidate list.
  if (config_.culling.enabled && partial_live_ == 0) {
    gather(node, /*ordered=*/true);
    assert(scratch_.size() == current_slots.size() && "live list differs from the grid gather");
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
      assert(scratch_[i].second == current_slots[i] && "live list differs from the grid gather");
    }
  }
}
#endif

MilliWatts Medium::accumulate(NodeId node, Mhz channel, FrameId exclude, Path path) const {
  MilliWatts total = noise_mw_;
  any_candidate(node, /*ordered=*/true, /*force_exhaustive=*/false, [&](std::uint32_t slot) {
    const Frame& f = frame_slots_[slot].frame;
    // A node never senses its own signal.
    if (f.id != exclude && f.src != node) {
      total += MilliWatts{leaked_mw(slot, node, channel, path)};
    }
    return false;
  });
  return total;
}

Dbm Medium::sense_energy(NodeId node, Mhz channel) const {
  // CCA is an energy read: only the analog filter attenuates neighbours.
  return to_dbm(accumulate(node, channel, /*exclude=*/0, kSensing));
}

Dbm Medium::interference(NodeId rx, Mhz channel, FrameId exclude) const {
  // Decoding interference: filter + despreading gain both reject neighbours.
  return to_dbm(accumulate(rx, channel, exclude, kDecode));
}

bool Medium::carrier_present(NodeId node, Mhz channel, Dbm sensitivity) const {
  // Culling guarantees frames outside the candidate set sit below the
  // receive floor; a detector tuned below that floor could still hear them,
  // so such a query scans exhaustively instead of trusting the grid.
  const bool force_exhaustive = sensitivity.value < cull_floor_dbm();
  return any_candidate(node, /*ordered=*/false, force_exhaustive, [&](std::uint32_t slot) {
    const Frame& f = frame_slots_[slot].frame;
    return f.src != node && same_channel(f.channel, channel) &&
           Dbm{terms(slot, node).rss_dbm} >= sensitivity;
  });
}

Medium::Overlap Medium::overlap(NodeId rx, Mhz channel, FrameId exclude) const {
  // A culled frame's RSS is below noise − margin, so it can neither clear
  // the inter-channel noise-floor test nor meaningfully collide co-channel;
  // the candidate set suffices.
  Overlap result;
  any_candidate(rx, /*ordered=*/false, /*force_exhaustive=*/false, [&](std::uint32_t slot) {
    const Frame& f = frame_slots_[slot].frame;
    if (f.id == exclude || f.src == rx) return false;
    if (same_channel(f.channel, channel)) {
      result.co = true;
    } else if (leaks_above_noise(f, Dbm{terms(slot, rx).rss_dbm}, channel)) {
      result.inter = true;
    }
    return false;
  });
  return result;
}

}  // namespace nomc::phy
