// Move-only type-erased event closure with inline storage.
//
// The scheduler used to hold events as std::function<void()>. Almost every
// closure in the simulator captures a handful of pointers plus (at most) one
// phy::Frame by value — ~70 bytes, beyond std::function's small-buffer
// optimization — so every scheduled event paid one heap allocation and one
// deallocation. At city scale that is millions of allocator round-trips per
// simulated second, all on the innermost loop.
//
// EventFn stores callables up to kInlineCapacity bytes directly inside the
// object (the event "pool" is then simply the scheduler's slot vector, which
// recycles its storage), and falls back to the heap only for
// oversized or throwing-move callables. Unlike std::function it is move-only,
// so move-only captures (e.g. a unique_ptr payload) schedule cleanly.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace nomc::sim {

class EventFn {
 public:
  /// Sized for the largest hot-path closure (Radio's end-of-frame event:
  /// a this-pointer plus a phy::Frame by value) with a little headroom.
  /// Larger captures still work — they transparently go to the heap.
  static constexpr std::size_t kInlineCapacity = 96;

  EventFn() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty EventFn");
    ops_->invoke(storage_);
  }

  /// True if the held callable lives inline (no heap allocation). Exposed so
  /// tests can pin which closures stay pooled.
  [[nodiscard]] bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct the callable from `src` into `dst`, then destroy `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <typename D>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineCapacity && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* s) { (*std::launder(static_cast<D*>(s)))(); },
      [](void* dst, void* src) {
        D* from = std::launder(static_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) { std::launder(static_cast<D*>(s))->~D(); },
      true,
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* s) { (**std::launder(static_cast<D**>(s)))(); },
      [](void* dst, void* src) {
        // Relocating a heap-held callable just moves the pointer; the
        // pointer itself is trivially destructible.
        ::new (dst) D*(*std::launder(static_cast<D**>(src)));
      },
      [](void* s) { delete *std::launder(static_cast<D**>(s)); },
      false,
  };

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
};

}  // namespace nomc::sim
