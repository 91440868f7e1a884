#pragma once

// ElementsIterator: the common shape of the five elements-iterator semantics,
// plus the options shared between them.
//
// Usage: call next() repeatedly. Each call is one *invocation* in the
// paper's sense (the first call or a resumption); it completes with a Step
// that yields an element, reports normal termination, or signals failure.
// The iterator owns the `yielded` history object (section 2.2's `remembers`
// clause) and, when a TraceRecorder is attached, records every invocation
// with ground-truth pre/post observations for the spec checkers.

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/set_view.hpp"
#include "core/step.hpp"
#include "obs/metrics.hpp"
#include "spec/trace.hpp"

namespace weakset {

enum class Semantics;

/// How an iterator picks among the reachable, not-yet-yielded candidates.
enum class PickOrder {
  kGiven,         ///< membership order as read (deterministic)
  kClosestFirst,  ///< lowest current network distance first (section 1.1)
};

/// How the optimistic iterator waits out failures. The paper's Figure 6
/// semantics blocks indefinitely ("it may never return if a failure is
/// detected"); forever() reproduces that literally, while a bounded policy
/// ends the observation window after max_attempts (reported as kExhausted,
/// recorded as `blocked` by the spec layer).
class RetryPolicy {
 public:
  RetryPolicy(std::size_t max_attempts, Duration interval)
      : max_attempts_(max_attempts), interval_(interval) {}

  static RetryPolicy forever(Duration interval = Duration::millis(100)) {
    RetryPolicy policy{0, interval};
    policy.forever_ = true;
    return policy;
  }

  [[nodiscard]] bool is_forever() const noexcept { return forever_; }
  [[nodiscard]] std::size_t max_attempts() const noexcept {
    return max_attempts_;
  }
  [[nodiscard]] Duration interval() const noexcept { return interval_; }

 private:
  std::size_t max_attempts_;
  Duration interval_;
  bool forever_ = false;
};

struct IteratorOptions {
  /// Fig 3 only: acquire the distributed freeze lock for the duration of the
  /// run, actively enforcing the immutability constraint (section 3.1's
  /// "typical implementations would use locks").
  bool enforce_freeze = false;
  /// Fig 5 only: pin the set grow-only for the duration of the run —
  /// additions proceed, removals are deferred as ghosts (section 3.3's
  /// cheap enforcement of the grow-only constraint).
  bool enforce_grow_only = false;
  /// Candidate ordering.
  PickOrder order = PickOrder::kGiven;
  /// Fig 6 only: blocking behaviour under failure.
  RetryPolicy retry = RetryPolicy{50, Duration::millis(100)};
  /// How many element fetches to keep in flight ahead of next(). 1 disables
  /// pipelining (the serial fetch-on-demand behaviour); larger windows issue
  /// batched fetches (SetView::fetch_many) for upcoming candidates while the
  /// current element is being consumed. Purely a performance knob: yield
  /// order and failure semantics are revalidated at yield time (see
  /// core/prefetcher.hpp and DESIGN.md).
  std::size_t prefetch_window = 8;
  /// Optional spec-layer recorder (nullptr: no recording overhead).
  spec::TraceRecorder* recorder = nullptr;
  /// Telemetry sink: per-figure invocation/yield counters, yield latency
  /// histograms, terminal IteratorStats fold. nullptr = the process-global
  /// registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-run observability counters (reported by benches; no semantic role).
struct IteratorStats {
  std::uint64_t invocations = 0;     ///< next() calls (paper: invocations)
  std::uint64_t fetch_attempts = 0;  ///< element fetches issued
  std::uint64_t fetch_failures = 0;  ///< element fetches that failed
  std::uint64_t skipped_unreachable = 0;  ///< candidates the failure
                                          ///< detector ruled out
  // Prefetch pipeline (all zero when prefetch_window <= 1). Invariant:
  // prefetch_hits + prefetch_misses == fetch_attempts.
  std::uint64_t prefetch_hits = 0;    ///< fetches served from the window
  std::uint64_t prefetch_misses = 0;  ///< fetches that had to wait or go out
  std::uint64_t prefetch_batches = 0;          ///< window refills issued
  std::uint64_t prefetch_batched_objects = 0;  ///< refs across those refills
  std::uint64_t prefetch_invalidated = 0;  ///< window entries discarded by
                                           ///< membership/reachability change
  // Membership refresh path (how each read_members() was served; Fig 5/6
  // re-read membership on every invocation, so these count the delta-sync
  // protocol's effect on the hot path).
  std::uint64_t membership_reads = 0;           ///< read_members() calls
  std::uint64_t membership_full_fragments = 0;  ///< fragments shipped full
  std::uint64_t membership_delta_fragments = 0;  ///< fragments as deltas
};

class Prefetcher;

class ElementsIterator {
 public:
  virtual ~ElementsIterator();  // out-of-line: Prefetcher is incomplete here
  ElementsIterator(const ElementsIterator&) = delete;
  ElementsIterator& operator=(const ElementsIterator&) = delete;

  /// One invocation. Calling next() again after kFinished or kFailed is not
  /// allowed.
  Task<Step> next();

  /// The `yielded` history object: elements yielded so far, in yield order.
  [[nodiscard]] const std::vector<ObjectRef>& yielded() const noexcept {
    return yielded_;
  }
  [[nodiscard]] bool has_yielded(ObjectRef ref) const {
    return yielded_index_.count(ref) > 0;
  }
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const IteratorStats& stats() const noexcept { return stats_; }

  /// Which point of the design space this iterator implements. Keys the
  /// per-figure telemetry namespace ("iter.<figure>.*").
  [[nodiscard]] virtual Semantics semantics() const noexcept = 0;

 protected:
  // Out-of-line like the destructor: inline special members would
  // instantiate ~unique_ptr over the incomplete Prefetcher.
  ElementsIterator(SetView& view, IteratorOptions options);

  /// The semantics-specific body of one invocation.
  virtual Task<Step> step() = 0;

  /// Runs after the terminal invocation has been recorded (kFinished or
  /// kFailed). Cleanup that re-admits mutators (releasing the freeze lock)
  /// belongs here, not in step(), so the recorded last-state still lies
  /// inside the protected window.
  virtual Task<void> on_terminal() { co_return; }

  /// Pins the spec recorder's first-state to "now" — call at the instant
  /// s_first is acquired (after the first read / at the snapshot cut).
  void mark_first_state() {
    if (options_.recorder != nullptr) options_.recorder->mark_first_state();
  }

  /// Candidates from `members` that are not yet yielded, in pick order.
  [[nodiscard]] std::vector<ObjectRef> unyielded(
      const std::vector<ObjectRef>& members) const;

  /// Reads the visible membership through the view, folding how it was
  /// served (full vs delta fragments) into the stats. Iterators that read
  /// membership per invocation use this instead of view().read_members().
  Task<Result<std::vector<ObjectRef>>> read_members_tracked();

  /// Tries to fetch candidates in order; yields the first success. Returns
  /// nullopt if every candidate was unreachable or failed to fetch.
  Task<std::optional<Step>> try_yield(std::vector<ObjectRef> candidates);

  /// Reconciles the prefetch window with the current candidate list (no-op
  /// when prefetch_window <= 1). Call once per invocation, after computing
  /// the candidates and before fetching any of them.
  void prefetch_sync(const std::vector<ObjectRef>& candidates);

  /// Fetches one element's payload, through the prefetch window when one is
  /// active. Counts the fetch attempt.
  Task<Result<VersionedValue>> fetch_element(ObjectRef ref);

  /// Discards any prefetched entry for `ref` (yield-time revalidation found
  /// it unreachable or removed).
  void prefetch_drop(ObjectRef ref);

  /// Awaits any still-in-flight prefetch batches (discarding their results).
  /// next() runs this on the terminal step so no detached batch worker —
  /// which holds the view pointer — survives a finished or failed run.
  Task<void> prefetch_quiesce();

  [[nodiscard]] SetView& view() noexcept { return view_; }
  [[nodiscard]] const IteratorOptions& options() const noexcept {
    return options_;
  }

 private:
  void note_yield(ObjectRef ref) {
    yielded_.push_back(ref);
    yielded_index_.insert(ref);
  }

  /// The interned "iter.<figure>.*" metric ids of one figure.
  struct MetricIds;

  /// This iterator's figure's ids — resolved on the first next() call (the
  /// vtable is not ready in the base constructor).
  const MetricIds& metric_ids();
  /// Folds the run's IteratorStats into the registry (terminal step only).
  void fold_stats_into_metrics();

  SetView& view_;
  IteratorOptions options_;
  obs::MetricsRegistry& metrics_;
  const MetricIds* metric_ids_ = nullptr;
  std::vector<ObjectRef> yielded_;
  std::unordered_set<ObjectRef> yielded_index_;
  bool started_ = false;
  bool done_ = false;
  IteratorStats stats_;
  std::unique_ptr<Prefetcher> prefetcher_;  // created lazily when window > 1
};

/// The points in the design space (section 3).
enum class Semantics {
  kFig1Immutable,            ///< immutable set, failures ignored
  kFig3ImmutableFailAware,   ///< immutable set with failures, pessimistic
  kFig4Snapshot,             ///< mutable set, snapshot-at-first-call
  kFig5GrowOnlyPessimistic,  ///< growing-only set, pessimistic
  kFig6Optimistic,           ///< grow-and-shrink set, optimistic (dynamic
                             ///< sets — the semantics being implemented, §5)
};

[[nodiscard]] std::string_view to_string(Semantics semantics);

/// Factory covering the whole design space.
std::unique_ptr<ElementsIterator> make_elements_iterator(
    SetView& view, Semantics semantics, IteratorOptions options = {});

/// Everything drain() observed about a full run.
class DrainResult {
 public:
  DrainResult() = default;

  [[nodiscard]] const std::vector<std::pair<ObjectRef, VersionedValue>>&
  elements() const noexcept {
    return elements_;
  }
  [[nodiscard]] bool finished() const noexcept { return finished_; }
  [[nodiscard]] const std::optional<Failure>& failure() const noexcept {
    return failure_;
  }
  [[nodiscard]] std::size_t count() const noexcept { return elements_.size(); }

  void add(ObjectRef ref, VersionedValue value) {
    elements_.emplace_back(ref, std::move(value));
  }
  void set_finished() { finished_ = true; }
  void set_failure(Failure failure) { failure_ = std::move(failure); }

 private:
  std::vector<std::pair<ObjectRef, VersionedValue>> elements_;
  bool finished_ = false;
  std::optional<Failure> failure_;
};

/// Runs the iterator to termination (or failure), collecting every yield.
Task<DrainResult> drain(ElementsIterator& iterator);

}  // namespace weakset
