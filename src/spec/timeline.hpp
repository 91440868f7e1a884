#pragma once

// MembershipTimeline: the ground-truth history of one collection's value
// over a whole computation — the σ_0 σ_1 ... σ_n sequence the paper's
// `constraint` clauses quantify over ("for all computations ... ∀ i < j :
// P(x_i, x_j)", section 2.2).
//
// Only *effective primary* mutations are recorded (replica convergence does
// not change the logical set's value). With the timeline we can decide, for
// any window [t0, t1]:
//   - immutability          (Figures 1 and 3:   s_i = s_j)
//   - grow-only             (Figure 5:          s_i ⊆ s_j)
//   - membership at a state (Figure 6's guarantee: e ∈ s_i for some i)
// Window queries binary-search the time-sorted events, and membership walks
// only the element's own events (each event links to the element's previous
// one), so a check costs what its window and that element's recent events
// hold, not the length of the whole history.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "store/collection.hpp"
#include "store/object.hpp"
#include "util/time.hpp"

namespace weakset::spec {

/// One timestamped ground-truth mutation of the logical set.
class TimelineEvent {
 public:
  TimelineEvent(SimTime at, CollectionOp::Kind kind, ObjectRef ref)
      : at_(at), kind_(kind), ref_(ref) {}

  [[nodiscard]] SimTime at() const noexcept { return at_; }
  [[nodiscard]] CollectionOp::Kind kind() const noexcept { return kind_; }
  [[nodiscard]] ObjectRef ref() const noexcept { return ref_; }

 private:
  friend class MembershipTimeline;
  static constexpr std::uint32_t kNoEvent = ~std::uint32_t{0};

  SimTime at_;
  CollectionOp::Kind kind_;
  /// Timeline index of the same element's previous event (kNoEvent: none),
  /// set by MembershipTimeline. It fills the padding after kind_, so the
  /// per-element chain adds no memory per event.
  std::uint32_t previous_ = kNoEvent;
  ObjectRef ref_;
};

class MembershipTimeline {
 public:
  /// Sets the membership at time zero (before any recorded event).
  void set_initial(std::set<ObjectRef> members) {
    assert(events_.empty());
    initial_ = std::move(members);
  }

  /// Appends an effective mutation. Times must be non-decreasing.
  void record(SimTime at, CollectionOp::Kind kind, ObjectRef ref) {
    assert(events_.empty() || events_.back().at() <= at);
    assert(events_.size() < TimelineEvent::kNoEvent);
    const auto index = static_cast<std::uint32_t>(events_.size());
    TimelineEvent event{at, kind, ref};
    const auto [latest, inserted] = latest_.try_emplace(ref, index);
    if (!inserted) event.previous_ = std::exchange(latest->second, index);
    events_.push_back(event);
  }

  [[nodiscard]] const std::vector<TimelineEvent>& events() const noexcept {
    return events_;
  }

  /// The set's value at time `t` (inclusive of events at exactly `t`).
  [[nodiscard]] std::set<ObjectRef> value_at(SimTime t) const {
    std::set<ObjectRef> value = initial_;
    for (const TimelineEvent& event : events_) {
      if (event.at() > t) break;
      apply(value, event);
    }
    return value;
  }

  /// True iff `ref` is a member at some state σ_i with t0 <= time(σ_i) <= t1.
  /// This is Figure 6's guarantee: "any element yielded must actually be in
  /// the set, for some state of the set between the first-state and
  /// last-state." Decided from `ref`'s own events, walked back from its
  /// latest one: an add inside (t0, t1] shows it; otherwise its last event
  /// at or before t0 decides, and the initial value if it has none. The
  /// cost is the number of `ref`'s events after t0.
  [[nodiscard]] bool present_in_window(ObjectRef ref, SimTime t0,
                                       SimTime t1) const {
    const auto latest = latest_.find(ref);
    if (latest == latest_.end()) return initial_.count(ref) > 0;
    for (std::uint32_t i = latest->second; i != TimelineEvent::kNoEvent;
         i = events_[i].previous_) {
      const TimelineEvent& event = events_[i];
      if (event.at() <= t0) return event.kind() == CollectionOp::Kind::kAdd;
      if (event.at() <= t1 && event.kind() == CollectionOp::Kind::kAdd) {
        return true;
      }
    }
    return initial_.count(ref) > 0;
  }

  /// True iff no effective mutation occurs strictly inside (t0, t1] — the
  /// constraint of Figures 1 and 3 restricted to the run window (the
  /// "less stringent" per-run variant discussed in section 3.1).
  [[nodiscard]] bool unchanged_in_window(SimTime t0, SimTime t1) const {
    const auto first = after(t0);
    return first == events_.end() || first->at() > t1;
  }

  /// True iff only additions occur inside (t0, t1] — Figure 5's constraint
  /// (s_i ⊆ s_j) restricted to the run window.
  [[nodiscard]] bool grow_only_in_window(SimTime t0, SimTime t1) const {
    for (auto it = after(t0); it != events_.end() && it->at() <= t1; ++it) {
      if (it->kind() == CollectionOp::Kind::kRemove) return false;
    }
    return true;
  }

  /// Counts mutations inside (t0, t1].
  [[nodiscard]] std::size_t mutations_in_window(SimTime t0, SimTime t1) const {
    const auto first = after(t0);
    const auto last = after(t1);
    return last > first ? static_cast<std::size_t>(last - first) : 0;
  }

 private:
  static void apply(std::set<ObjectRef>& value, const TimelineEvent& event) {
    if (event.kind() == CollectionOp::Kind::kAdd) {
      value.insert(event.ref());
    } else {
      value.erase(event.ref());
    }
  }

  /// The first event strictly after `t` (events_ is sorted by time).
  [[nodiscard]] std::vector<TimelineEvent>::const_iterator after(
      SimTime t) const {
    return std::upper_bound(
        events_.begin(), events_.end(), t,
        [](SimTime at, const TimelineEvent& event) { return at < event.at(); });
  }

  std::set<ObjectRef> initial_;
  std::vector<TimelineEvent> events_;
  /// Per element, the index of its latest event: the head of its chain.
  std::unordered_map<ObjectRef, std::uint32_t> latest_;
};

}  // namespace weakset::spec
