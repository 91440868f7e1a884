#include "core/prefetcher.hpp"

#include <cassert>
#include <unordered_set>
#include <utility>

#include "core/iterator.hpp"

namespace weakset {
namespace {

/// The prefetcher's telemetry names, interned once per process.
struct PrefetchMetrics {
  obs::HistogramId window_occupancy{"iter.prefetch.window_occupancy"};
  obs::CounterId batches{"iter.prefetch.batches"};
  obs::CounterId batched_objects{"iter.prefetch.batched_objects"};
};
const PrefetchMetrics kMetrics{};

}  // namespace

Prefetcher::Prefetcher(SetView& view, std::size_t window, IteratorStats& stats,
                       obs::MetricsRegistry& metrics)
    : view_(view),
      window_(window),
      low_water_((window + 1) / 2),
      stats_(stats),
      metrics_(metrics) {
  assert(window_ >= 2 && "window 1 is the iterator's serial path");
}

void Prefetcher::sync(const std::vector<ObjectRef>& candidates) {
  if (!slots_.empty()) {
    const std::unordered_set<ObjectRef> current(candidates.begin(),
                                                candidates.end());
    for (auto it = slots_.begin(); it != slots_.end();) {
      if (current.count(it->first) == 0) {
        // The element was removed (or yielded) since its prefetch was issued;
        // discarding the slot is what keeps Figure 6's "never yield an element
        // whose removal was observed" intact under prefetching.
        ++stats_.prefetch_invalidated;
        it = slots_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Hysteresis: refill only once the window has half-drained, so each refill
  // is a real batch rather than one ref per yield.
  if (slots_.size() >= low_water_) return;
  std::vector<ObjectRef> refs;
  std::vector<std::shared_ptr<Slot>> batch;
  for (const ObjectRef ref : candidates) {
    if (slots_.size() >= window_) break;
    if (slots_.count(ref) != 0 || !view_.is_reachable(ref)) continue;
    auto slot = std::make_shared<Slot>(view_.sim());
    slots_.emplace(ref, slot);
    refs.push_back(ref);
    batch.push_back(std::move(slot));
  }
  if (refs.empty()) return;
  std::erase_if(batch_tails_, [](const std::shared_ptr<Slot>& tail) {
    return tail->cell.is_set();
  });
  batch_tails_.push_back(batch.back());
  ++stats_.prefetch_batches;
  stats_.prefetch_batched_objects += refs.size();
  // Occupancy is sampled right after a refill: how full the pipeline runs in
  // steady state (a full window means fetches hide behind consumption).
  metrics_.record_value(kMetrics.window_occupancy,
                        static_cast<std::int64_t>(slots_.size()));
  metrics_.add(kMetrics.batches);
  metrics_.add(kMetrics.batched_objects, refs.size());
  view_.sim().spawn(batch_worker(&view_, std::move(refs), std::move(batch)));
}

Task<Result<VersionedValue>> Prefetcher::fetch(ObjectRef ref) {
  const auto it = slots_.find(ref);
  if (it == slots_.end()) {
    // Never prefetched (e.g. it was unreachable at sync time): serial fetch.
    ++stats_.prefetch_misses;
    co_return co_await view_.fetch(ref);
  }
  std::shared_ptr<Slot> slot = it->second;
  slots_.erase(it);
  if (slot->cell.is_set()) {
    ++stats_.prefetch_hits;
  } else {
    // In flight: the consumer still pays the residual wait.
    ++stats_.prefetch_misses;
  }
  co_return co_await slot->cell.wait();
}

void Prefetcher::drop(ObjectRef ref) {
  if (slots_.erase(ref) > 0) ++stats_.prefetch_invalidated;
}

Task<void> Prefetcher::quiesce() {
  std::unordered_map<ObjectRef, std::shared_ptr<Slot>> outstanding =
      std::move(slots_);
  slots_.clear();
  for (auto& entry : outstanding) {
    (void)co_await entry.second->cell.wait();
  }
  // A batch whose every entry sync() or drop() discarded is no longer in
  // the window but may still be in flight; awaiting its tail waits it out.
  // Tails already set (every batch awaited above) resume without a step.
  const std::vector<std::shared_ptr<Slot>> tails = std::move(batch_tails_);
  batch_tails_.clear();
  for (const auto& tail : tails) (void)co_await tail->cell.wait();
}

Task<void> Prefetcher::batch_worker(SetView* view, std::vector<ObjectRef> refs,
                                    std::vector<std::shared_ptr<Slot>> slots) {
  std::vector<Result<VersionedValue>> results =
      co_await view->fetch_many(std::move(refs));
  assert(results.size() == slots.size() &&
         "fetch_many must answer every ref, in order");
  for (std::size_t i = 0; i < results.size(); ++i) {
    // try_set cannot fail: each slot has exactly one producer. If the
    // iterator dropped the slot meanwhile, this keeps the value alive only
    // until `slots` goes out of scope.
    slots[i]->cell.try_set(std::move(results[i]));
  }
}

}  // namespace weakset
