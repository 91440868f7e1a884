#pragma once

// Prefetcher: the iterator-side fetch pipeline.
//
// An elements iterator consumes candidates strictly in pick order, but
// nothing in any of the five specifications requires the element *payloads*
// to be requested serially — fetching is I/O, not semantics. The prefetcher
// keeps a window of fetches in flight ahead of next(): sync() reconciles the
// window with the current candidate list and tops it up with one batched
// fetch_many() call (which the repository view turns into per-node
// store.fetch_batch RPCs), and fetch() consumes the result for one ref,
// serving it instantly when the prefetch already landed.
//
// Semantics preservation is the caller's contract, enforced in two places:
//   - sync() drops window entries whose ref left the candidate set, so a
//     payload prefetched for an element that was then removed (and whose
//     removal the iterator observed) can never be yielded;
//   - the iterator revalidates reachability at yield time and calls drop()
//     instead of consuming, so the failure/blocking behaviour of Figures
//     3/5/6 is decided against the failure detector *now*, exactly as the
//     serial path decides it.
// What prefetching may change is only payload currency: a consumed value can
// be up to one window older than a serial fetch would have returned — the
// paper's cached-copy-as-history-object trade (section 3), bounded by the
// window.
//
// Lifetime: batch workers are detached simulator processes holding the view
// pointer. The iterator awaits quiesce() on its terminal step, and quiesce()
// awaits every batch still in flight — including a batch whose window
// entries sync() or drop() all discarded — so after a run has finished or
// failed no worker is still in flight. Only an iterator abandoned mid-run
// keeps the contract that the view must outlive any in-flight batch (drain
// the simulator before tearing the view down).

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/set_view.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"

namespace weakset {

struct IteratorStats;

class Prefetcher {
 public:
  /// `window` must be >= 2 (window 1 is the iterator's serial path, which
  /// never constructs a prefetcher). `stats` receives the prefetch counters;
  /// `metrics` receives the window-occupancy histogram.
  Prefetcher(SetView& view, std::size_t window, IteratorStats& stats,
             obs::MetricsRegistry& metrics);

  /// Reconciles the window with the current candidate list (in pick order):
  /// drops entries whose ref is no longer a candidate, and — once the window
  /// has drained below half — refills it with one batched fetch over the
  /// first untracked, reachable candidates. Refilling in half-window batches
  /// (instead of one ref per yield) is what keeps the per-node RPCs batched.
  void sync(const std::vector<ObjectRef>& candidates);

  /// Consumes the result for `ref`: serves the completed prefetch (hit),
  /// awaits the in-flight one, or falls back to a direct fetch (miss).
  Task<Result<VersionedValue>> fetch(ObjectRef ref);

  /// Discards any window entry for `ref` without consuming it (yield-time
  /// revalidation found it unreachable; a later retry refetches fresh).
  void drop(ObjectRef ref);

  /// Awaits every outstanding window entry and every batch still in flight,
  /// discarding the results, so no batch worker (each holds the view
  /// pointer) is still running when the caller starts tearing the view down.
  Task<void> quiesce();

 private:
  /// One window entry: completed by the batch worker, consumed by fetch().
  /// Heap-shared so a worker can land a result for an entry that sync()
  /// already dropped (the result is then discarded).
  struct Slot {
    explicit Slot(Simulator& sim) : cell(sim) {}
    OneShot<Result<VersionedValue>> cell;
  };

  static Task<void> batch_worker(SetView* view, std::vector<ObjectRef> refs,
                                 std::vector<std::shared_ptr<Slot>> slots);

  SetView& view_;
  std::size_t window_;
  std::size_t low_water_;
  IteratorStats& stats_;
  obs::MetricsRegistry& metrics_;
  std::unordered_map<ObjectRef, std::shared_ptr<Slot>> slots_;
  /// The last slot of each batch that may still be in flight. A worker sets
  /// its slots in order within one event, so a set tail means the worker is
  /// done; set tails are pruned at the next refill.
  std::vector<std::shared_ptr<Slot>> batch_tails_;
};

}  // namespace weakset
