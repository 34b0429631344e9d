// Small open-addressing map from node id to a cached double: the medium's
// pairwise path-loss cache, one map per node.
//
// The pair loss used to live in a dense N×N array — O(N^2) memory, which is
// exactly what a city-scale node count cannot afford. With spatial culling
// a node only ever asks about its ~tens of radio neighbours, so the cache is
// sparse: this map stores just the keys actually queried, with open
// addressing and power-of-two sizing so a lookup is one or two cache probes
// and never hashes through std::unordered_map machinery. (Per-frame terms
// live in a dense array on the frame's slot instead, indexed by the
// receiver's position in the frame's covered set; see phy/medium.hpp.)
// Nodes never move, so an entry, once filled, stays valid for the map's
// lifetime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nomc::phy {

class NodeValueMap {
 public:
  struct Entry {
    std::uint32_t key = kEmpty;
    double value = 0.0;
  };

  /// Sentinel: no node id (they are dense, starting at 0) ever equals it.
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  /// Returns the entry for `key`, inserting an empty-keyed slot if absent.
  /// The caller checks `entry.key != key` to decide whether the value must
  /// be computed, then fills both fields.
  [[nodiscard]] Entry& find_or_insert(std::uint32_t key) {
    if (table_.empty()) grow();
    for (;;) {
      std::size_t i = index_of(key);
      for (;;) {
        Entry& e = table_[i];
        if (e.key == key) return e;
        if (e.key == kEmpty) {
          if (size_ * 10 >= table_.size() * 7) break;  // over load factor: grow
          ++size_;
          return e;
        }
        i = (i + 1) & (table_.size() - 1);
      }
      grow();
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  [[nodiscard]] std::size_t index_of(std::uint32_t key) const {
    // Fibonacci hashing spreads the dense, sequential node ids.
    const std::uint64_t h = std::uint64_t{key} * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h >> 32) & (table_.size() - 1);
  }

  void grow() {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.empty() ? 16 : old.size() * 2, Entry{});
    size_ = 0;
    for (const Entry& e : old) {
      if (e.key == kEmpty) continue;
      std::size_t i = index_of(e.key);
      while (table_[i].key != kEmpty) i = (i + 1) & (table_.size() - 1);
      table_[i] = e;
      ++size_;
    }
  }

  std::vector<Entry> table_;
  std::size_t size_ = 0;
};

}  // namespace nomc::phy
