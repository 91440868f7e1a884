#pragma once

// IterationTrace and TraceRecorder: recorded computations of the elements
// iterator, in the paper's model (section 2): "A computation, i.e., program
// execution, is a sequence of alternating states and (atomic) transitions
// ... We consider the first call to an iterator as well as each resumption
// as an invocation of the iterator."
//
// Each invocation is recorded with the ground-truth observation at its
// pre-state AND post-state. The specs treat an invocation as one atomic
// transition; a real (distributed) invocation takes time, so the "state the
// operation acted on" lies somewhere in [pre, post]. Checkers therefore
// accept a predicate if it holds at either boundary (the witness rule),
// which is the faithful finite-observation reading of the atomic model.

#include <cassert>
#include <optional>
#include <utility>
#include <vector>

#include "spec/observation.hpp"
#include "util/time.hpp"

namespace weakset::spec {

/// Supplies ground-truth observations: true membership (union of fragment
/// primaries) and true reachability for the observing client, at "now".
class GroundTruth {
 public:
  virtual ~GroundTruth() = default;
  [[nodiscard]] virtual SetObservation observe() const = 0;
  /// Can the observing client access `ref` right now? (Used to evaluate
  /// reachable(s_first)_σ for arbitrary σ, which Figures 3/4 need.)
  [[nodiscard]] virtual bool reachable(ObjectRef ref) const = 0;
  [[nodiscard]] virtual SimTime now() const = 0;
};

/// One invocation (the first call or a resumption) of the iterator.
class InvocationRecord {
 public:
  InvocationRecord(SimTime pre_time, SetObservation pre,
                   RefSet pre_reachable_of_first, SimTime post_time,
                   SetObservation post, RefSet post_reachable_of_first,
                   StepOutcome outcome, std::optional<ObjectRef> element)
      : pre_time_(pre_time),
        pre_(std::move(pre)),
        pre_reachable_of_first_(std::move(pre_reachable_of_first)),
        post_time_(post_time),
        post_(std::move(post)),
        post_reachable_of_first_(std::move(post_reachable_of_first)),
        outcome_(outcome),
        element_(element) {}

  [[nodiscard]] SimTime pre_time() const noexcept { return pre_time_; }
  [[nodiscard]] SimTime post_time() const noexcept { return post_time_; }
  /// Ground truth at the invocation's pre-state.
  [[nodiscard]] const SetObservation& pre() const noexcept { return pre_; }
  /// Ground truth at the invocation's post-state.
  [[nodiscard]] const SetObservation& post() const noexcept { return post_; }
  /// reachable(s_first) evaluated at the pre-state: the first-state members
  /// the observer could access when this invocation started.
  [[nodiscard]] const RefSet& pre_reachable_of_first() const noexcept {
    return pre_reachable_of_first_;
  }
  /// reachable(s_first) evaluated at the post-state.
  [[nodiscard]] const RefSet& post_reachable_of_first() const noexcept {
    return post_reachable_of_first_;
  }
  [[nodiscard]] StepOutcome outcome() const noexcept { return outcome_; }
  /// The element yielded, iff outcome is kSuspended.
  [[nodiscard]] const std::optional<ObjectRef>& element() const noexcept {
    return element_;
  }

 private:
  SimTime pre_time_;
  SetObservation pre_;
  RefSet pre_reachable_of_first_;
  SimTime post_time_;
  SetObservation post_;
  RefSet post_reachable_of_first_;
  StepOutcome outcome_;
  std::optional<ObjectRef> element_;
};

/// The full recorded run of one use of the elements iterator, from the
/// first-state to the last-state.
class IterationTrace {
 public:
  IterationTrace() = default;
  IterationTrace(SimTime first_time, SetObservation first,
                 std::vector<InvocationRecord> invocations)
      : started_(true),
        first_time_(first_time),
        first_(std::move(first)),
        invocations_(std::move(invocations)) {}

  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] SimTime first_time() const noexcept { return first_time_; }
  /// Ground truth in the state where the iterator was first called (s_first).
  [[nodiscard]] const SetObservation& first() const noexcept { return first_; }
  [[nodiscard]] const std::vector<InvocationRecord>& invocations()
      const noexcept {
    return invocations_;
  }

  /// The time of the last completed invocation's post-state (the last-state),
  /// or first_time if nothing ran.
  [[nodiscard]] SimTime last_time() const noexcept {
    return invocations_.empty() ? first_time_
                                : invocations_.back().post_time();
  }

  /// The yielded history object's final value: every element yielded, in
  /// yield order (duplicates preserved so checkers can flag them).
  [[nodiscard]] std::vector<ObjectRef> yield_sequence() const {
    std::vector<ObjectRef> out;
    for (const auto& inv : invocations_) {
      if (inv.outcome() == StepOutcome::kSuspended && inv.element()) {
        out.push_back(*inv.element());
      }
    }
    return out;
  }

  /// Outcome of the final invocation, or nullopt for an empty trace.
  [[nodiscard]] std::optional<StepOutcome> final_outcome() const {
    if (invocations_.empty()) return std::nullopt;
    return invocations_.back().outcome();
  }

 private:
  bool started_ = false;
  SimTime first_time_;
  SetObservation first_;
  std::vector<InvocationRecord> invocations_;
};

/// Builds an IterationTrace while an iterator runs. The iterator harness
/// calls begin() at the first call, observe_pre() at each invocation's entry,
/// and record() when the invocation completes; the owner then takes the
/// trace with finish(), once.
class TraceRecorder {
 public:
  explicit TraceRecorder(const GroundTruth& truth) : truth_(truth) {}

  /// Captures the first-state. Must be called exactly once, before any
  /// invocation records.
  void begin() {
    assert(!began_);
    began_ = true;
    first_time_ = truth_.now();
    first_ = truth_.observe();
  }
  [[nodiscard]] bool began() const noexcept { return began_; }

  /// Re-captures the first-state at the current instant. An implementation
  /// acquires its s_first somewhere *inside* the first invocation (a read or
  /// an atomic snapshot cannot happen at the exact instant next() is
  /// entered); it calls this at its acquisition point — the consistent cut —
  /// so the specification's first-state matches the state the run is
  /// actually specified against. See DESIGN.md (witness rule discussion).
  void mark_first_state() {
    assert(began_);
    first_time_ = truth_.now();
    first_ = truth_.observe();
  }

  /// Captures the pre-state of an invocation (call at invocation entry).
  void observe_pre() {
    assert(began_);
    pre_time_ = truth_.now();
    pre_ = truth_.observe();
    pre_reachable_of_first_ = reachable_of_first();
  }

  /// Completes the current invocation record (call at invocation exit).
  void record(StepOutcome outcome, std::optional<ObjectRef> element) {
    assert(began_);
    invocations_.emplace_back(pre_time_, std::move(pre_),
                              std::move(pre_reachable_of_first_),
                              truth_.now(), truth_.observe(),
                              reachable_of_first(), outcome, element);
    pre_ = SetObservation{};
    pre_reachable_of_first_ = RefSet{};
  }

  /// The finished trace. Single use: the recorded first-state and
  /// invocations move into the returned trace, so call it once, after the
  /// last record(), and drop the recorder afterwards.
  [[nodiscard]] IterationTrace finish() {
    assert(began_);
    return IterationTrace{first_time_, std::move(first_),
                          std::move(invocations_)};
  }

  /// Ground truth at s_first (available from begin() until finish()).
  [[nodiscard]] const SetObservation& first() const noexcept { return first_; }

 private:
  /// reachable(s_first) in the current state σ: which first-state members
  /// the observer can access right now. Filtering the sorted first-state
  /// members keeps the result sorted.
  [[nodiscard]] RefSet reachable_of_first() const {
    std::vector<ObjectRef> out;
    out.reserve(first_.members().size());
    for (const ObjectRef ref : first_.members()) {
      if (truth_.reachable(ref)) out.push_back(ref);
    }
    return RefSet::from_sorted(std::move(out));
  }

  const GroundTruth& truth_;
  bool began_ = false;
  SimTime first_time_;
  SetObservation first_;
  SimTime pre_time_;
  SetObservation pre_;
  RefSet pre_reachable_of_first_;
  std::vector<InvocationRecord> invocations_;
};

}  // namespace weakset::spec
