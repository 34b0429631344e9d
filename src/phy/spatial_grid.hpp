// Uniform hash grid over node positions.
//
// A frame whose influence disc (the receive-floor radius, see
// docs/scaling.md) does not cover the whole deployment reaches only the
// listening nodes inside it. The medium finds them once per (source, tx
// power): the grid buckets every listening node by its cell, so that
// lookup only visits the cells that intersect the disc.
// Cell size is the receive-floor radius of a nominal transmitter, so a
// lookup touches a small constant number of cells.
//
// Determinism: the grid's only job is to produce a candidate *set*; the
// medium applies the exact per-node distance test and sorts the survivors by
// node id before anything depends on their order. Cell iteration order is a
// fixed row-major walk of the disc's bounding box; the hash-map fallback
// below never feeds an ordered consumer directly.
//
// Precondition: every position handed in is finite. Cell indices come from
// casting floor(coordinate / cell) to int64_t, which is undefined behaviour
// for NaN and infinities (the medium asserts it in add_node).
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "phy/geometry.hpp"

namespace nomc::phy {

class SpatialGrid {
 public:
  /// Drops all content and sets the cell edge length.
  void reset(double cell_size_m) {
    cells_.clear();
    cell_size_ = cell_size_m > 0.0 ? cell_size_m : 1.0;
  }

  /// Buckets `id` at `pos`; ids never leave (listening nodes stay).
  void insert(std::uint32_t id, Vec2 pos) { cells_[key_of(pos)].push_back(id); }

  /// Calls `fn(id)` for every id bucketed in a cell that intersects the
  /// axis-aligned bounding box of the disc (center, radius). Callers apply
  /// the exact per-id distance test; the grid only prunes cells.
  template <typename Fn>
  void for_each_in_disc(Vec2 center, double radius, Fn&& fn) const {
    const std::int64_t cx0 = cell_of(center.x - radius);
    const std::int64_t cx1 = cell_of(center.x + radius);
    const std::int64_t cy0 = cell_of(center.y - radius);
    const std::int64_t cy1 = cell_of(center.y + radius);
    const std::uint64_t span_x = static_cast<std::uint64_t>(cx1 - cx0) + 1;
    const std::uint64_t span_y = static_cast<std::uint64_t>(cy1 - cy0) + 1;
    // A disc much larger than the occupied region would probe mostly-empty
    // cells; visiting the occupied cells directly is then strictly cheaper.
    if (span_x > cells_.size() && span_x * span_y > cells_.size()) {
      for (const auto& [key, cell] : cells_) {
        (void)key;
        for (const std::uint32_t id : cell) fn(id);
      }
      return;
    }
    for (std::int64_t cy = cy0; cy <= cy1; ++cy) {
      for (std::int64_t cx = cx0; cx <= cx1; ++cx) {
        const auto it = cells_.find(make_key(cx, cy));
        if (it == cells_.end()) continue;
        for (const std::uint32_t id : it->second) fn(id);
      }
    }
  }

 private:
  [[nodiscard]] std::int64_t cell_of(double v) const {
    assert(std::isfinite(v) && "spatial grid coordinates must be finite");
    return static_cast<std::int64_t>(std::floor(v / cell_size_));
  }
  [[nodiscard]] static std::uint64_t make_key(std::int64_t cx, std::int64_t cy) {
    // Interleave the low 32 bits of each coordinate; deployments fit well
    // inside +/- 2^31 cells, so the truncation can never collide.
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32 |
           static_cast<std::uint64_t>(static_cast<std::uint32_t>(cy));
  }
  [[nodiscard]] std::uint64_t key_of(Vec2 pos) const {
    return make_key(cell_of(pos.x), cell_of(pos.y));
  }

  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> cells_;
  double cell_size_ = 1.0;
};

}  // namespace nomc::phy
