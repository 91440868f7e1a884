#include "core/iterator.hpp"

#include <algorithm>
#include <array>
#include <cassert>

#include "core/fig1_iterator.hpp"
#include "core/grow_only_iterator.hpp"
#include "core/immutable_iterator.hpp"
#include "core/optimistic_iterator.hpp"
#include "core/prefetcher.hpp"
#include "core/snapshot_iterator.hpp"

namespace weakset {

ElementsIterator::ElementsIterator(SetView& view, IteratorOptions options)
    : view_(view),
      options_(std::move(options)),
      metrics_(obs::sink(options_.metrics)) {}

ElementsIterator::~ElementsIterator() = default;

/// One figure's telemetry names, interned once per process.
struct ElementsIterator::MetricIds {
  explicit MetricIds(Semantics semantics) : MetricIds(prefix(semantics)) {}

  obs::CounterId invocations;
  obs::CounterId yields;
  obs::CounterId finished;
  obs::CounterId blocked;
  obs::CounterId failed;
  obs::HistogramId yield_latency_ns;
  // Folded from IteratorStats when a run terminates.
  obs::CounterId runs;
  obs::CounterId fetch_attempts;
  obs::CounterId fetch_failures;
  obs::CounterId skipped_unreachable;
  obs::CounterId prefetch_hits;
  obs::CounterId prefetch_misses;
  obs::CounterId prefetch_batches;
  obs::CounterId prefetch_batched_objects;
  obs::CounterId prefetch_invalidated;
  obs::CounterId membership_reads;
  obs::CounterId membership_full_fragments;
  obs::CounterId membership_delta_fragments;

 private:
  /// "iter.<figure>."
  static std::string prefix(Semantics semantics) {
    std::string p = "iter.";
    p += to_string(semantics);
    p += '.';
    return p;
  }

  explicit MetricIds(const std::string& p)
      : invocations(p + "invocations"),
        yields(p + "yields"),
        finished(p + "finished"),
        blocked(p + "blocked"),
        failed(p + "failed"),
        yield_latency_ns(p + "yield_latency_ns"),
        runs(p + "runs"),
        fetch_attempts(p + "fetch_attempts"),
        fetch_failures(p + "fetch_failures"),
        skipped_unreachable(p + "skipped_unreachable"),
        prefetch_hits(p + "prefetch_hits"),
        prefetch_misses(p + "prefetch_misses"),
        prefetch_batches(p + "prefetch_batches"),
        prefetch_batched_objects(p + "prefetch_batched_objects"),
        prefetch_invalidated(p + "prefetch_invalidated"),
        membership_reads(p + "membership_reads"),
        membership_full_fragments(p + "membership_full_fragments"),
        membership_delta_fragments(p + "membership_delta_fragments") {}
};

const ElementsIterator::MetricIds& ElementsIterator::metric_ids() {
  if (metric_ids_ == nullptr) {
    // Indexed by Semantics, in declaration order.
    static const std::array<MetricIds, 5> kByFigure{
        MetricIds{Semantics::kFig1Immutable},
        MetricIds{Semantics::kFig3ImmutableFailAware},
        MetricIds{Semantics::kFig4Snapshot},
        MetricIds{Semantics::kFig5GrowOnlyPessimistic},
        MetricIds{Semantics::kFig6Optimistic}};
    metric_ids_ = &kByFigure.at(static_cast<std::size_t>(semantics()));
  }
  return *metric_ids_;
}

void ElementsIterator::fold_stats_into_metrics() {
  const MetricIds& m = *metric_ids_;
  metrics_.add(m.runs);
  metrics_.add(m.fetch_attempts, stats_.fetch_attempts);
  metrics_.add(m.fetch_failures, stats_.fetch_failures);
  metrics_.add(m.skipped_unreachable, stats_.skipped_unreachable);
  metrics_.add(m.prefetch_hits, stats_.prefetch_hits);
  metrics_.add(m.prefetch_misses, stats_.prefetch_misses);
  metrics_.add(m.prefetch_batches, stats_.prefetch_batches);
  metrics_.add(m.prefetch_batched_objects, stats_.prefetch_batched_objects);
  metrics_.add(m.prefetch_invalidated, stats_.prefetch_invalidated);
  metrics_.add(m.membership_reads, stats_.membership_reads);
  metrics_.add(m.membership_full_fragments, stats_.membership_full_fragments);
  metrics_.add(m.membership_delta_fragments,
               stats_.membership_delta_fragments);
}

Task<Step> ElementsIterator::next() {
  assert(!done_ && "next() called after the iterator terminated");
  ++stats_.invocations;
  const MetricIds& m = metric_ids();
  metrics_.add(m.invocations);
  const SimTime invoked_at = view_.sim().now();
  spec::TraceRecorder* recorder = options_.recorder;
  if (recorder != nullptr) {
    if (!started_) recorder->begin();
    recorder->observe_pre();
  }
  started_ = true;

  Step result = co_await step();

  // Yield latency is the paper's user-visible cost: how long one invocation
  // held the caller before suspending (or terminating).
  metrics_.record(m.yield_latency_ns, view_.sim().now() - invoked_at);
  if (result.is_yield()) {
    note_yield(result.ref());
    metrics_.add(m.yields);
  } else {
    done_ = true;
    if (result.kind() == Step::Kind::kFinished) {
      metrics_.add(m.finished);
    } else if (result.failure().kind == FailureKind::kExhausted) {
      metrics_.add(m.blocked);
    } else {
      metrics_.add(m.failed);
    }
  }
  if (recorder != nullptr) {
    spec::StepOutcome outcome = spec::StepOutcome::kReturned;
    std::optional<ObjectRef> element;
    switch (result.kind()) {
      case Step::Kind::kYielded:
        outcome = spec::StepOutcome::kSuspended;
        element = result.ref();
        break;
      case Step::Kind::kFinished:
        outcome = spec::StepOutcome::kReturned;
        break;
      case Step::Kind::kFailed:
        // A bounded optimistic run that exhausted its retry budget models
        // "would have blocked forever; the observation window ended here".
        outcome = (result.failure().kind == FailureKind::kExhausted)
                      ? spec::StepOutcome::kBlocked
                      : spec::StepOutcome::kFailed;
        break;
    }
    recorder->record(outcome, element);
  }
  if (done_) {
    co_await prefetch_quiesce();
    co_await on_terminal();
    fold_stats_into_metrics();  // after cleanup: the stats are final
  }
  co_return result;
}

std::vector<ObjectRef> ElementsIterator::unyielded(
    const std::vector<ObjectRef>& members) const {
  std::vector<ObjectRef> out;
  out.reserve(members.size());
  for (const ObjectRef ref : members) {
    if (yielded_index_.count(ref) == 0) out.push_back(ref);
  }
  if (options_.order == PickOrder::kClosestFirst) {
    std::stable_sort(out.begin(), out.end(),
                     [this](ObjectRef a, ObjectRef b) {
                       const auto da = view_.distance(a);
                       const auto db = view_.distance(b);
                       // Unreachable (nullopt) sorts last.
                       if (da && db) return *da < *db;
                       return da.has_value() && !db.has_value();
                     });
  }
  return out;
}

Task<Result<std::vector<ObjectRef>>> ElementsIterator::read_members_tracked() {
  Result<std::vector<ObjectRef>> members = co_await view_.read_members();
  ++stats_.membership_reads;
  if (members.has_value()) {
    const SetView::MembershipReadMode mode = view_.last_read_mode();
    stats_.membership_full_fragments += mode.full;
    stats_.membership_delta_fragments += mode.delta;
  }
  co_return members;
}

void ElementsIterator::prefetch_sync(
    const std::vector<ObjectRef>& candidates) {
  if (options_.prefetch_window <= 1) return;
  if (!prefetcher_) {
    prefetcher_ = std::make_unique<Prefetcher>(
        view_, options_.prefetch_window, stats_, metrics_);
  }
  prefetcher_->sync(candidates);
}

Task<Result<VersionedValue>> ElementsIterator::fetch_element(ObjectRef ref) {
  ++stats_.fetch_attempts;
  if (prefetcher_) co_return co_await prefetcher_->fetch(ref);
  co_return co_await view_.fetch(ref);
}

void ElementsIterator::prefetch_drop(ObjectRef ref) {
  if (prefetcher_) prefetcher_->drop(ref);
}

Task<void> ElementsIterator::prefetch_quiesce() {
  if (prefetcher_) co_await prefetcher_->quiesce();
}

Task<std::optional<Step>> ElementsIterator::try_yield(
    std::vector<ObjectRef> candidates) {
  prefetch_sync(candidates);
  for (const ObjectRef ref : candidates) {
    // Reachability is decided *now*, against the live failure detector, even
    // when the payload was prefetched earlier — so the per-figure failure
    // behaviour is unchanged by pipelining.
    if (!view_.is_reachable(ref)) {
      ++stats_.skipped_unreachable;
      prefetch_drop(ref);
      continue;
    }
    Result<VersionedValue> value = co_await fetch_element(ref);
    if (value) co_return Step::yielded(ref, std::move(value).value());
    ++stats_.fetch_failures;
    // Transient fetch failure (e.g. the partition arose between the
    // reachability check and the fetch): try the next candidate.
  }
  co_return std::nullopt;
}

std::string_view to_string(Semantics semantics) {
  switch (semantics) {
    case Semantics::kFig1Immutable:
      return "fig1-immutable";
    case Semantics::kFig3ImmutableFailAware:
      return "fig3-immutable-failures";
    case Semantics::kFig4Snapshot:
      return "fig4-snapshot";
    case Semantics::kFig5GrowOnlyPessimistic:
      return "fig5-grow-only";
    case Semantics::kFig6Optimistic:
      return "fig6-optimistic";
  }
  return "?";
}

std::unique_ptr<ElementsIterator> make_elements_iterator(
    SetView& view, Semantics semantics, IteratorOptions options) {
  switch (semantics) {
    case Semantics::kFig1Immutable:
      return std::make_unique<Fig1Iterator>(view, std::move(options));
    case Semantics::kFig3ImmutableFailAware:
      return std::make_unique<ImmutableIterator>(view, std::move(options));
    case Semantics::kFig4Snapshot:
      return std::make_unique<SnapshotIterator>(view, std::move(options));
    case Semantics::kFig5GrowOnlyPessimistic:
      return std::make_unique<GrowOnlyPessimisticIterator>(view,
                                                           std::move(options));
    case Semantics::kFig6Optimistic:
      return std::make_unique<OptimisticIterator>(view, std::move(options));
  }
  return nullptr;
}

Task<DrainResult> drain(ElementsIterator& iterator) {
  DrainResult result;
  for (;;) {
    Step step = co_await iterator.next();
    switch (step.kind()) {
      case Step::Kind::kYielded:
        result.add(step.ref(), step.value());
        break;
      case Step::Kind::kFinished:
        result.set_finished();
        co_return result;
      case Step::Kind::kFailed:
        result.set_failure(step.failure());
        co_return result;
    }
  }
}

}  // namespace weakset
