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
  slots_.push_back(Slot{std::move(fn)});
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) noexcept {
  // Bump the generation so timer tokens referring to the finished occupant
  // can never match the next one.
  ++slots_[slot].gen;
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

void Simulator::cancel_slot(std::uint32_t slot, std::uint32_t gen) noexcept {
  if (slot >= slots_.size() || slots_[slot].gen != gen) {
    return;  // already ran or already cancelled
  }
  // Take the entry out of the heap and free the slot now, so the heap holds
  // only events that will run. The callable is moved out and destroyed last,
  // once heap and free list are consistent: its captures' destructors may
  // schedule or cancel events (and so reuse this slot or grow the slab).
  InlineFunc doomed = std::move(slots_[slot].fn);
  remove_entry(slots_[slot].pos);
  release_slot(slot);
}

void Simulator::place(std::size_t i, const HeapEntry& entry) noexcept {
  queue_[i] = entry;
  slots_[entry.slot].pos = static_cast<std::uint32_t>(i);
}

void Simulator::sift_up(std::size_t hole, HeapEntry entry) noexcept {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (!later(queue_[parent], entry)) break;
    place(hole, queue_[parent]);
    hole = parent;
  }
  place(hole, entry);
}

void Simulator::sift_down(std::size_t hole, HeapEntry entry) noexcept {
  const std::size_t n = queue_.size();
  for (std::size_t child = 2 * hole + 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && later(queue_[child], queue_[child + 1])) ++child;
    if (!later(entry, queue_[child])) break;
    place(hole, queue_[child]);
    hole = child;
  }
  place(hole, entry);
}

void Simulator::remove_entry(std::size_t i) noexcept {
  const HeapEntry last = queue_.back();
  queue_.pop_back();
  if (i == queue_.size()) return;  // the removed entry was the last one
  // Refill the hole with the last entry. Deep in the heap that entry may
  // come from another subtree and be earlier than the hole's parent, so it
  // can have to move up as well as down.
  if (i > 0 && later(queue_[(i - 1) / 2], last)) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

void Simulator::push_entry(SimTime at, std::uint32_t slot) {
  queue_.emplace_back();
  sift_up(queue_.size() - 1, HeapEntry{at, next_seq_++, slot});
}

void Simulator::run_top() {
  const HeapEntry entry = queue_.front();
  remove_entry(0);
  assert(entry.at >= clock_);
  // Move the callable out and free the slot *before* running it: the
  // callback may schedule new events into the very slot it occupied.
  InlineFunc fn = std::move(slots_[entry.slot].fn);
  release_slot(entry.slot);
  clock_ = entry.at;
  ++processed_;
  fn();
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
  if (queue_.empty()) return false;
  run_top();
  return true;
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
    run_top();
    ++n;
  }
  assert(n < max_events && "simulation exceeded max_events (livelock?)");
  clock_ = std::max(clock_, deadline);
  return n;
}

}  // namespace weakset
