#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace nomc::sim {

EventId Scheduler::schedule_at(SimTime at, EventFn fn) {
  assert(at >= now_ && "cannot schedule into the past");
  assert(fn && "event must be callable");
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.live = true;
  heap_.push_back(Key{at, next_seq_++, index, slot.generation});
  std::push_heap(heap_.begin(), heap_.end(), later);
  ++live_count_;
  return static_cast<EventId>(index) << 32 | slot.generation;
}

void Scheduler::retire(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  // Generation 0 is reserved so kInvalidEventId never matches a slot.
  if (++slot.generation == 0) slot.generation = 1;
  free_slots_.push_back(index);
  --live_count_;
}

bool Scheduler::cancel(EventId id) {
  // A stale generation means the event has run, been cancelled, or the id
  // was never issued; all three answer "false".
  const std::uint32_t index = slot_of(id);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.live || slot.generation != generation_of(id)) return false;
  // The closure (and whatever it captured) is released when this function
  // returns, after the bookkeeping is consistent again; its key stays in the
  // heap until it surfaces or a purge sweeps it.
  const EventFn doomed = std::move(slot.fn);
  retire(index);
  // Dead keys outnumbering live ones: purge so cancel-heavy workloads (CSMA
  // timeouts) cannot accumulate garbage. Each purge is paid for by the
  // 64 + 2·live cancellations that preceded it.
  if (heap_.size() - live_count_ > 2 * live_count_ + 64) {
    std::erase_if(heap_, [this](const Key& key) { return !key_live(key); });
    std::make_heap(heap_.begin(), heap_.end(), later);
  }
  return true;
}

bool Scheduler::prune_top() {
  while (!heap_.empty() && !key_live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    heap_.pop_back();
  }
  return !heap_.empty();
}

bool Scheduler::step() {
  if (!prune_top()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Key key = heap_.back();
  heap_.pop_back();
  // Keys leave in exactly (at, seq) order: nothing left may precede this one.
  assert((heap_.empty() || !later(key, heap_.front())) && "heap order violated");
  assert(key.at >= now_);
  EventFn fn = std::move(slots_[key.slot].fn);
  retire(key.slot);
  now_ = key.at;
  ++executed_;
  fn();
  return true;
}

void Scheduler::run_until(SimTime end) {
  while (prune_top() && heap_.front().at <= end) step();
  if (now_ < end) now_ = end;
}

void Scheduler::run_all() {
  while (step()) {
  }
}

}  // namespace nomc::sim
