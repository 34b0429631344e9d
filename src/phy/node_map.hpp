// Small open-addressing map from node id to a cached value.
//
// The medium's hot-path memoization (pairwise path loss, per-frame RSS and
// leaked power) used to live in dense per-node arrays — O(N) per frame and
// O(N^2) overall, which is exactly what a city-scale node count cannot
// afford. With spatial culling a node only ever asks about its ~tens of
// radio neighbours, so the caches are sparse: this map stores just the keys
// actually queried, with open addressing and power-of-two sizing so a lookup
// is one or two cache probes and never hashes through std::unordered_map
// machinery.
//
// Each entry carries a caller-managed epoch tag. The caches use it for O(1)
// motion invalidation: entries snapshot a node's motion epoch at compute
// time, so bumping that node's epoch atomically stales every cached value
// that depends on its position without walking anything (see
// Medium::set_position).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace nomc::phy {

template <class Value>
class NodeMap {
 public:
  struct Entry {
    std::uint32_t key = kEmpty;
    std::uint32_t epoch = 0;
    Value value{};
  };

  /// Sentinel: no node id (they are dense, starting at 0) ever equals it.
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  /// Returns the entry for `key`, inserting an empty-keyed slot if absent.
  /// The caller checks `entry.key != key` (or an epoch mismatch) to decide
  /// whether the cached value must be (re)computed, then fills all fields.
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

  /// Drop every entry, keeping the allocated capacity (maps are reused).
  void clear() {
    if (size_ == 0) return;
    for (Entry& e : table_) e = Entry{};
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  /// Iteration support for debug cross-checks (order is not deterministic;
  /// never feed it into an output or a float accumulation).
  [[nodiscard]] const std::vector<Entry>& raw_entries() const { return table_; }

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

/// Node id -> cached double (the medium's pairwise path-loss cache).
using NodeValueMap = NodeMap<double>;

}  // namespace nomc::phy
