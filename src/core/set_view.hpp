#pragma once

// SetView: the client-side capabilities an elements iterator needs from the
// underlying set object. The five iterator semantics are written against
// this interface, so the same code runs over the pure in-memory view (unit
// tests, Layer A) and the simulated distributed repository (Layer B).
//
// The capability ladder mirrors the cost ladder of section 3 of the paper:
//   read_members      one loose read of visible membership (may be stale)
//   snapshot_atomic   an atomic whole-set read ("extremely expensive")
//   freeze/unfreeze   the distributed lock behind true immutability
//   is_reachable      the transport layer's failure detector
//   fetch             retrieve an element's payload (the act of yielding)
//   fetch_many        batched fetch: many payloads in per-node round trips

#include <functional>
#include <optional>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "store/object.hpp"
#include "util/result.hpp"

namespace weakset {

class SetView {
 public:
  /// How the last read_members() was served, in fragment counts: shipped in
  /// full vs served incrementally through the delta-sync protocol
  /// (DESIGN.md decision 9). Purely observational — IteratorStats folds
  /// these into its membership counters.
  struct MembershipReadMode {
    std::uint64_t full = 0;
    std::uint64_t delta = 0;
  };

  virtual ~SetView() = default;

  /// One loose read of the membership as visible to this client. Under
  /// distribution this may be stale (replica reads) and is not atomic across
  /// fragments.
  virtual Task<Result<std::vector<ObjectRef>>> read_members() = 0;

  /// How the most recent read_members() was served. The default says "one
  /// full read": a view that doesn't know about delta sync ships the whole
  /// membership. Distributed views report their real fragment counts.
  [[nodiscard]] virtual MembershipReadMode last_read_mode() const {
    return MembershipReadMode{1, 0};
  }

  /// An atomic snapshot of the whole logical set — the "one atomic action"
  /// that the Figure 4 semantics requires. `on_cut`, if set, is invoked at
  /// the instant the snapshot is consistent (while mutators are still
  /// excluded); the spec recorder uses it to pin the first-state.
  virtual Task<Result<std::vector<ObjectRef>>> snapshot_atomic(
      std::function<void()> on_cut) = 0;

  /// Blocks all mutation of the set until unfreeze() (or lease expiry). The
  /// substrate for enforcing the immutability constraint during a run.
  virtual Task<Result<void>> freeze() = 0;
  virtual Task<void> unfreeze() = 0;

  /// Pins the set grow-only until unpin_grow_only(): additions proceed,
  /// removals are deferred ("ghost" members, section 3.3). The cheap
  /// enforcement substrate for the Figure 5 constraint during a run.
  virtual Task<Result<void>> pin_grow_only() = 0;
  virtual Task<void> unpin_grow_only() = 0;

  /// Is `ref` currently accessible from this client? (Cheap local test
  /// against the failure detector; the paper assumes failures are
  /// detectable.)
  [[nodiscard]] virtual bool is_reachable(ObjectRef ref) const = 0;

  /// Current network distance to `ref`'s home; nullopt if unreachable. Used
  /// by closest-first yield ordering (section 1.1: "fetching 'closer' files
  /// first").
  [[nodiscard]] virtual std::optional<Duration> distance(
      ObjectRef ref) const = 0;

  /// Retrieves the payload behind `ref` — yielding an element means actually
  /// delivering its object to the client.
  virtual Task<Result<VersionedValue>> fetch(ObjectRef ref) = 0;

  /// Retrieves several payloads; results align with `refs` by index and the
  /// call itself never fails (per-ref failures travel in the results). The
  /// default degrades to one fetch() per ref; distributed views override it
  /// to batch each home node's refs into one RPC, which is what makes
  /// iterator prefetching cheap over a wide-area repository. The prefetcher
  /// makes one call per home node, so each home's results are delivered as
  /// soon as that home answers.
  virtual Task<std::vector<Result<VersionedValue>>> fetch_many(
      std::vector<ObjectRef> refs) {
    std::vector<Result<VersionedValue>> out;
    out.reserve(refs.size());
    for (const ObjectRef ref : refs) out.push_back(co_await fetch(ref));
    co_return out;
  }

  [[nodiscard]] virtual Simulator& sim() = 0;
};

}  // namespace weakset
