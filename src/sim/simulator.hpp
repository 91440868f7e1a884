#pragma once

// Discrete-event simulator with a virtual clock.
//
// All distributed behaviour in this library (latency, partitions, crashes,
// concurrent mutators) runs over this simulator, so every run is exactly
// reproducible from its RNG seeds: events execute in (time, sequence) order.
// There is one event queue and one thread — a computation is one sequence of
// atomic transitions, as in the paper's model (section 2). Interleavings are
// modelled, not raced. See DESIGN.md section 3.3.
//
// Hot-path memory discipline (DESIGN.md decision 13): event callbacks live
// in a slab of recycled slots and are InlineFunc (small-buffer optimised),
// and a cancelled event leaves the heap at once, its slot matched against
// stale timer tokens by a generation counter — so the steady-state event
// loop performs zero allocations per event (tests/alloc_test.cpp holds this
// to account) and the heap holds only events that will run.

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <variant>
#include <vector>

#include "sim/task.hpp"
#include "util/inline_func.hpp"
#include "util/pool.hpp"
#include "util/time.hpp"

namespace weakset {

/// The event loop. Owns the virtual clock and the (time, seq)-ordered queue
/// of pending events.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const noexcept { return clock_; }

  /// Runs `fn` after `delay` of virtual time (>= 0). Events scheduled for
  /// the same instant run in scheduling order.
  void schedule(Duration delay, InlineFunc fn);

  /// Runs `fn` at absolute virtual time `at` (>= now()).
  void schedule_at(SimTime at, InlineFunc fn);

  /// Handle to a pending timer; cancelling it takes the event out of the
  /// queue at once, so it neither runs nor advances the clock, and destroys
  /// its callable (important for timeout timers that lost their race against
  /// a reply: they would otherwise sit in the queue, captures and all, until
  /// their deadline). The token is a (slot, generation) pair: running or
  /// cancelling the event bumps the slot's generation, so any stale copy of
  /// the token no longer matches. Cancelling after the timer fired (or after
  /// a second cancel) is a harmless no-op, but the token must not outlive
  /// the Simulator itself.
  class TimerToken {
   public:
    TimerToken() = default;
    void cancel() const {
      if (sim_ != nullptr) sim_->cancel_slot(slot_, gen_);
    }

   private:
    friend class Simulator;
    TimerToken(Simulator* sim, std::uint32_t slot, std::uint32_t gen)
        : sim_(sim), slot_(slot), gen_(gen) {}
    Simulator* sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
  };

  /// Like schedule(), but returns a token that can cancel the event.
  TimerToken schedule_cancellable(Duration delay, InlineFunc fn);

  /// Starts a detached coroutine process. The process begins executing at
  /// the current virtual time, after already-queued events for this instant.
  void spawn(Task<void> task);

  /// Processes events until the queue is empty. Returns events executed.
  /// `max_events` guards against runaway simulations.
  std::size_t run(std::size_t max_events = kDefaultMaxEvents);

  /// Processes all events with time <= deadline, then advances the clock to
  /// `deadline`. Returns events executed.
  std::size_t run_until(SimTime deadline,
                        std::size_t max_events = kDefaultMaxEvents);

  /// Processes a single event. Returns false if no events were pending.
  bool step();

  /// True when no event is pending; a cancelled timer is not pending.
  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

  /// Awaitable: suspends the current coroutine for `d` of virtual time.
  /// delay(Duration::zero()) yields to other ready events at this instant.
  [[nodiscard]] auto delay(Duration d) {
    struct Awaiter {
      Simulator& sim;
      Duration d;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> handle) {
        sim.schedule(d, [handle] { handle.resume(); });
      }
      void await_resume() const noexcept {}
    };
    assert(d >= Duration::zero());
    return Awaiter{*this, d};
  }

  /// Awaitable: lets every other event ready at this instant run first.
  [[nodiscard]] auto yield_now() { return delay(Duration::zero()); }

  static constexpr std::size_t kDefaultMaxEvents = 500'000'000;

 private:
  /// A queued callback. Slots are recycled through a free list; `gen`
  /// distinguishes the current occupant from stale timer tokens, and is
  /// bumped on both cancellation and completion.
  struct Slot {
    InlineFunc fn;
    std::uint32_t gen = 0;
    std::uint32_t pos = 0;  ///< index of this slot's entry in queue_
    std::uint32_t next_free = kNoSlot;
  };
  /// Heap entries are 24 trivially-copyable bytes; the callable stays put in
  /// the slab while sift-up/down shuffle these. Every entry is live: a
  /// cancelled event leaves the heap when it is cancelled.
  struct HeapEntry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // Binary min-heap on (at, seq) over a vector. Each queued slot records its
  // entry's index (Slot::pos), so a cancel can remove the entry in place.
  static bool later(const HeapEntry& a, const HeapEntry& b) {
    return a.at > b.at || (a.at == b.at && a.seq > b.seq);
  }

  std::uint32_t acquire_slot(InlineFunc fn);
  void release_slot(std::uint32_t slot) noexcept;
  void cancel_slot(std::uint32_t slot, std::uint32_t gen) noexcept;
  /// Writes `entry` into queue_[i] and records i as its slot's position.
  void place(std::size_t i, const HeapEntry& entry) noexcept;
  /// Moves `entry` from the hole at queue_[hole] towards the root (up) or
  /// the leaves (down) until the heap order holds, then places it.
  void sift_up(std::size_t hole, HeapEntry entry) noexcept;
  void sift_down(std::size_t hole, HeapEntry entry) noexcept;
  /// Takes queue_[i] out of the heap, moving the last entry into the hole.
  void remove_entry(std::size_t i) noexcept;
  void push_entry(SimTime at, std::uint32_t slot);
  /// Pops the top heap entry and runs it. Precondition: the queue is
  /// non-empty.
  void run_top();

  std::vector<HeapEntry> queue_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  SimTime clock_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

namespace detail {
/// Self-destroying wrapper coroutine used by Simulator::spawn. Owns the
/// spawned Task in its frame; destroys itself (and hence the task) when the
/// task finishes.
struct Detached {
  struct promise_type {
    Detached get_return_object() {
      return Detached{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    // A failure escaping a detached process is a bug in the simulation, not a
    // modelled fault (those travel as Result values); fail loudly.
    void unhandled_exception() { std::terminate(); }
    // Frames recycle through BlockPool like every other task frame.
    static void* operator new(std::size_t size) {
      return BlockPool::allocate(size);
    }
    static void operator delete(void* frame, std::size_t size) noexcept {
      BlockPool::deallocate(frame, size);
    }
  };
  std::coroutine_handle<promise_type> handle;
};

Detached run_detached(Task<void> task);
}  // namespace detail

/// Drives `task` to completion on `sim` and returns its result. Runs the
/// event loop only until the task finishes: background daemons (replication
/// pullers, mutator processes) may still have events queued afterwards.
/// Intended for test/bench/example entry points.
template <typename T>
T run_task(Simulator& sim, Task<T> task) {
  // Task<void> has no value to store; a monostate marks completion so both
  // cases share one driver loop.
  using Slot = std::conditional_t<std::is_void_v<T>, std::monostate, T>;
  std::optional<Slot> slot;
  sim.spawn([](Task<T> inner, std::optional<Slot>& out) -> Task<void> {
    if constexpr (std::is_void_v<T>) {
      co_await std::move(inner);
      out.emplace();
    } else {
      out = co_await std::move(inner);
    }
  }(std::move(task), slot));
  [[maybe_unused]] std::size_t steps = 0;  // only read when assert() is live
  while (!slot.has_value() && sim.step()) {
    assert(++steps < Simulator::kDefaultMaxEvents && "runaway simulation");
  }
  assert(slot.has_value() && "task did not complete (deadlocked process?)");
  if constexpr (!std::is_void_v<T>) return std::move(*slot);
}

}  // namespace weakset
