#include "sim/simulator.hpp"

#include <algorithm>

namespace weakset {

// ---------------------------------------------------------------------------
// Slot slab + heap

std::uint32_t Simulator::acquire_slot(InlineFunc fn) {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].fn = std::move(fn);
    return slot;
  }
  assert(slots_.size() < kNoSlot && "event slab exhausted");
  slots_.push_back(Slot{std::move(fn), 0, kNoSlot});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) noexcept {
  // Bump the generation so stale heap entries and timer tokens referring to
  // the finished occupant can never match the next one.
  ++slots_[slot].gen;
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

void Simulator::cancel_slot(std::uint32_t slot, std::uint32_t gen) noexcept {
  if (slot >= slots_.size() || slots_[slot].gen != gen) {
    return;  // already ran
  }
  // Invalidate the queued heap entry; the slot itself is reclaimed (and the
  // callable destroyed) when that entry surfaces at the top of the heap —
  // exactly when the shared_ptr<bool> scheme used to discard it.
  ++slots_[slot].gen;
}

void Simulator::push_entry(SimTime at, std::uint32_t slot) {
  queue_.push_back(HeapEntry{at, next_seq_++, slot, slots_[slot].gen});
  std::push_heap(queue_.begin(), queue_.end(), later);
}

bool Simulator::run_top() {
  std::pop_heap(queue_.begin(), queue_.end(), later);
  const HeapEntry entry = queue_.back();
  queue_.pop_back();
  Slot& slot = slots_[entry.slot];
  if (slot.gen != entry.gen) {
    // Cancelled: destroy the callable and reclaim the slot silently —
    // cancelled events neither run nor advance the clock. The generation
    // was already bumped by cancel_slot, so reclaim without another bump.
    slot.fn.reset();
    slot.next_free = free_head_;
    free_head_ = entry.slot;
    return false;
  }
  assert(entry.at >= clock_);
  // Move the callable out and free the slot *before* running it: the
  // callback may schedule new events into the very slot it occupied.
  InlineFunc fn = std::move(slot.fn);
  release_slot(entry.slot);
  clock_ = entry.at;
  ++processed_;
  fn();
  return true;
}

// ---------------------------------------------------------------------------
// Scheduling

void Simulator::schedule(Duration delay, InlineFunc fn) {
  assert(delay >= Duration::zero());
  schedule_at(clock_ + delay, std::move(fn));
}

void Simulator::schedule_at(SimTime at, InlineFunc fn) {
  assert(at >= clock_);
  push_entry(at, acquire_slot(std::move(fn)));
}

Simulator::TimerToken Simulator::schedule_cancellable(Duration delay,
                                                      InlineFunc fn) {
  const std::uint32_t slot = acquire_slot(std::move(fn));
  push_entry(clock_ + delay, slot);
  return TimerToken{this, slot, slots_[slot].gen};
}

namespace detail {
Detached run_detached(Task<void> task) { co_await std::move(task); }
}  // namespace detail

void Simulator::spawn(Task<void> task) {
  auto detached = detail::run_detached(std::move(task));
  schedule(Duration::zero(), [handle = detached.handle] { handle.resume(); });
}

// ---------------------------------------------------------------------------
// Driving

bool Simulator::step() {
  while (!queue_.empty()) {
    if (run_top()) return true;  // else cancelled: silent skip
  }
  return false;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  assert(n < max_events && "simulation exceeded max_events (livelock?)");
  return n;
}

std::size_t Simulator::run_until(SimTime deadline, std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && !queue_.empty() &&
         queue_.front().at <= deadline) {
    if (run_top()) ++n;  // else cancelled: silent skip
  }
  assert(n < max_events && "simulation exceeded max_events (livelock?)");
  clock_ = std::max(clock_, deadline);
  return n;
}

}  // namespace weakset
