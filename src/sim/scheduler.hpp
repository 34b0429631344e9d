// Discrete-event scheduler: the heart of the simulator.
//
// Events are closures ordered by (time, insertion sequence); ties in time
// therefore execute in scheduling order, which makes runs deterministic.
// Liveness is tracked by generation-checked slots — an EventId packs (slot
// index, generation), so schedule, cancel, and the liveness check are all
// O(1) array probes with no hashing on the hot path.
//
// The pending set is a binary min-heap of small keys {time, sequence, slot,
// generation}; each closure lives in its slot, not in the heap, so sifting
// moves 24-byte keys and never touches an EventFn. Cancellation is lazy for
// the key (it stays in the heap, fails the generation check and is popped
// when it reaches the top) but eager for the closure, which is destroyed at
// once. Simulated MAC timing is quantised to backoff slots, so hundreds of
// pending events share a few instants — a heap's O(log n) is indifferent to
// that clustering. Events are EventFn closures with inline storage and the
// slot vector recycles them, so steady-state scheduling performs no heap
// allocation at all. The dequeue order is exactly (time, insertion
// sequence). See docs/scaling.md for the design walk-through.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace nomc::sim {

/// Opaque handle for cancelling a scheduled event: (slot << 32) | generation.
/// Generations start at 1, so the value 0 is never issued.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Starts at zero; advances only inside run calls.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(SimTime at, EventFn fn);

  /// Schedule `fn` to run `delay` after now().
  EventId schedule_in(SimTime delay, EventFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event. Returns false if the event already ran, was
  /// already cancelled, or the id is invalid/unknown.
  bool cancel(EventId id);

  /// Execute the earliest pending event. Returns false if the queue is empty.
  bool step();

  /// Run events until the queue drains or simulated time would exceed `end`.
  /// Leaves now() == end when the horizon is hit (so timers can resume).
  void run_until(SimTime end);

  /// Run until the event queue is empty.
  void run_all();

  /// Number of pending (scheduled, not yet run, not cancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_count_; }

  /// Total events executed so far (telemetry for microbenchmarks/tests).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Attach a trace sink (nullptr detaches). The scheduler does not own it.
  /// Components reach the tracer through the scheduler they already hold:
  ///   if (auto* t = scheduler.trace()) t->emit({...});
  void set_trace(TraceSink* sink) { trace_ = sink; }
  [[nodiscard]] TraceSink* trace() const { return trace_; }

  /// Convenience: emit `record` stamped with now() if a sink is attached.
  void trace_event(TraceRecord record) {
    if (trace_ != nullptr) {
      record.at = now_;
      trace_->emit(record);
    }
  }

 private:
  /// A pending event's heap key. The closure waits in slots_[slot]; the key
  /// is live while that slot still holds `generation`.
  struct Key {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO within equal times
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// Heap order: true when `a` runs after `b`, which makes the std heap
  /// algorithms keep the earliest (at, seq) on top.
  static bool later(const Key& a, const Key& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
  /// One event's closure and liveness record. A slot is recycled
  /// (generation bumped, closure destroyed, index pushed on the free list) as
  /// soon as its event runs or is cancelled; a stale key then fails the
  /// generation check and is dropped when it surfaces.
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;
    bool live = false;
  };

  [[nodiscard]] static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  [[nodiscard]] static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  [[nodiscard]] bool key_live(const Key& key) const {
    const Slot& slot = slots_[key.slot];
    return slot.live && slot.generation == key.generation;
  }
  /// Mark slot `index` dead and recycle it for reuse.
  void retire(std::uint32_t index);
  /// Pop dead keys off the top. Returns false when the heap is empty.
  bool prune_top();

  /// Pending keys, dead ones included, as a heap under later().
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  TraceSink* trace_ = nullptr;
};

}  // namespace nomc::sim
