#pragma once

// Optimized observed-remove set (OR-Set) — the CRDT replication substrate
// for ReplicationMode::kOrSet (DESIGN.md decision 16, ROADMAP item 2).
//
// The formulation follows Bieniusa et al., "An Optimized Conflict-free
// Replicated Set" (PAPERS.md): every insertion is tagged with a globally
// unique *dot* (origin replica, per-origin counter), removals kill the
// observed dots, and a per-replica *dot context* — a version vector plus a
// cloud of out-of-order dots — records every dot ever seen. Because the
// context remembers killed dots, no tombstone set is needed: a kill simply
// erases the live dot, and a late-arriving insert for a dot the context
// already covers is a no-op. The cloud folds into the version vector as
// dots become contiguous, and a dot whose predecessor has not reached this
// replica waits in the cloud: context size is O(origins) plus the dots
// stranded past a gap. Anti-entropy closes the gaps — the durable_churn
// benchmark workload's live contexts hold no cloud dots against 3-14
// vector entries at seed 1 — but a context rebuilt by replaying dot ops
// alone misses the coverage snapshot joins merged in: replaying that
// workload's whole WAL left 138-3,247 cloud dots per context. Recovery
// therefore starts from a checkpointed context (the store's checkpoint
// image) and replays only the tail.
//
// Replication is a stream of dot-level operations (DotOp): insert(e, d) and
// kill(e, d). Each DotOp is idempotent and the pair for one dot commutes
// (insert-then-kill and kill-then-insert both end with the dot dead and
// covered), so replicas applying the same set of DotOps in any order, any
// number of times, converge to the same state — the property the server's
// anti-entropy machinery leans on: per-peer cursors advance optimistically
// and a missed range is repaired by a later full-state join.
//
// Membership is the set of elements with at least one live dot. The live-dot
// store is an ordered map, so members() is sorted — replicas that converged
// report byte-identical member vectors regardless of arrival order, which is
// exactly what spec::check_converged asserts.

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "store/object.hpp"

namespace weakset::crdt {

/// A globally unique event identifier: the `counter`-th operation tagged by
/// replica `origin`. Origins encode the node id salted with the fragment
/// incarnation (see make_origin), so a replica recovering from an amnesia
/// crash — having forgotten how many dots it minted — never reuses a dot.
class Dot {
 public:
  Dot() = default;
  Dot(std::uint64_t origin, std::uint64_t counter)
      : origin_(origin), counter_(counter) {}

  [[nodiscard]] std::uint64_t origin() const noexcept { return origin_; }
  [[nodiscard]] std::uint64_t counter() const noexcept { return counter_; }

  friend constexpr auto operator<=>(Dot, Dot) = default;

 private:
  std::uint64_t origin_ = 0;
  std::uint64_t counter_ = 0;
};

/// Origin id for a replica: node id in the high bits, fragment incarnation
/// in the low 16. An amnesia recovery bumps the incarnation, moving the
/// replica onto a fresh dot namespace.
[[nodiscard]] constexpr std::uint64_t make_origin(
    std::uint64_t node_raw, std::uint64_t incarnation) noexcept {
  return (node_raw << 16) | (incarnation & 0xffff);
}

/// The set of dots a replica has ever observed, compressed: a version vector
/// (per-origin contiguous prefix) plus a cloud of dots received out of
/// order. This is the "optimized" part of the optimized OR-Set — covered
/// dots are forgotten individually, so there is no per-removal tombstone.
class DotContext {
 public:
  /// Rebuilds a context from its wire form: version-vector entries as
  /// (origin, counter) pairs and cloud dots likewise.
  static DotContext from_parts(
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
          vector_entries,
      const std::vector<std::pair<std::uint64_t, std::uint64_t>>& cloud_dots);

  [[nodiscard]] bool contains(Dot dot) const {
    const auto it = vv_.find(dot.origin());
    if (it != vv_.end() && dot.counter() <= it->second) return true;
    return cloud_.count(dot) > 0;
  }

  /// Records `dot` as observed. A dot that extends its origin's prefix
  /// folds only that origin's cloud: O((1 + f + k) log n) for f folded
  /// dots, k origins with cloud dots and n cloud dots, independent of how
  /// many dots the other origins left stranded.
  void add(Dot dot);

  /// Union with another context (vector entries max-wise, clouds unioned).
  void merge(const DotContext& other);

  /// Per-origin contiguous prefix (origin -> highest covered counter).
  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& vector()
      const noexcept {
    return vv_;
  }
  /// Dots observed beyond the contiguous prefix.
  [[nodiscard]] const std::set<Dot>& cloud() const noexcept { return cloud_; }

 private:
  /// Folds cloud dots that extend an origin's contiguous prefix into the
  /// version vector and drops cloud dots the vector already covers; every
  /// origin with cloud dots gets a vector entry (counter 0 if none of its
  /// dots is contiguous). One pass over the whole cloud: merge and
  /// from_parts only.
  void compact();

  std::map<std::uint64_t, std::uint64_t> vv_;
  std::set<Dot> cloud_;
};

/// One dot-level replication operation. The unit of the wire protocol
/// (orset.pull), of the outbound anti-entropy log, and of the WAL records
/// (kOrSetInsert / kOrSetKill) — one representation end to end.
class DotOp {
 public:
  enum class Kind : std::uint8_t { kInsert, kKill };

  DotOp() = default;
  DotOp(Kind kind, ObjectRef element, Dot dot)
      : kind_(kind), element_(element), dot_(dot) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] ObjectRef element() const noexcept { return element_; }
  [[nodiscard]] Dot dot() const noexcept { return dot_; }

  friend bool operator==(const DotOp&, const DotOp&) = default;

 private:
  Kind kind_ = Kind::kInsert;
  ObjectRef element_;
  Dot dot_;
};

/// Replicated set state for one fragment hosted under kOrSet mode. Local
/// mutations (add/remove) mint or kill dots and return the resulting DotOps
/// for the caller to log and replicate; remote ops arrive through apply();
/// anti-entropy resync arrives through join().
class OrSet {
 public:
  explicit OrSet(CollectionId id) : id_(id) {}

  [[nodiscard]] CollectionId id() const noexcept { return id_; }

  /// Moves this replica onto a fresh dot namespace (amnesia recovery: the
  /// local counter restarts, which is safe exactly because the origin is
  /// new). Dots already minted under previous origins are unaffected.
  void set_origin(std::uint64_t origin) noexcept {
    origin_ = origin;
    counter_ = 0;
  }
  [[nodiscard]] std::uint64_t origin() const noexcept { return origin_; }

  /// Local add. Already a member: no-op, returns {} (parity with
  /// CollectionState::add returning false — the repository's sets are
  /// membership-observed, so a duplicate add does not mint a fresh tag).
  /// Otherwise mints one dot and returns the insert op, already applied.
  [[nodiscard]] std::vector<DotOp> add(ObjectRef element);

  /// Local remove. Not a member: no-op, returns {}. Otherwise kills every
  /// observed live dot of the element (the OR-Set remove: concurrent inserts
  /// whose dots we have not seen survive) and returns the kill ops, already
  /// applied.
  [[nodiscard]] std::vector<DotOp> remove(ObjectRef element);

  /// Applies one (possibly remote, possibly duplicate) dot op. Returns true
  /// iff state changed — the caller's cue to WAL the op. A kill for a dot
  /// whose insert was never seen still changes state (the context must cover
  /// the dot so the insert is dead on arrival) without touching membership.
  bool apply(const DotOp& op);

  /// Full-state merge with a peer's context and live set (anti-entropy
  /// fallback when the peer's op log no longer reaches our cursor). Every
  /// state change is expressed as a DotOp and applied through apply(); the
  /// applied ops are returned for WAL logging. Afterwards the remote context
  /// is merged wholesale, so dots the peer saw born-and-killed are covered
  /// here too.
  std::vector<DotOp> join(const DotContext& remote_context,
                          const std::vector<DotOp>& remote_live);

  [[nodiscard]] bool contains(ObjectRef element) const {
    return live_.count(element) > 0;
  }
  [[nodiscard]] std::size_t size() const noexcept { return live_.size(); }

  /// Current members, sorted (the live-dot store is an ordered map) — the
  /// canonical order every converged replica reports identically.
  [[nodiscard]] std::vector<ObjectRef> members() const;

  /// Bumped on every effective *membership* change (an element appearing or
  /// disappearing); context-only changes do not count. Serves the same role
  /// as CollectionState::version for snapshot/delta read replies.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  [[nodiscard]] const DotContext& context() const noexcept { return ctx_; }

  /// Every live (element, dot) pair as insert ops, in canonical order — the
  /// live half of a full-state reply.
  [[nodiscard]] std::vector<DotOp> export_live() const;

 private:
  CollectionId id_;
  std::uint64_t origin_ = 0;
  std::uint64_t counter_ = 0;
  std::map<ObjectRef, std::set<Dot>> live_;
  DotContext ctx_;
  std::uint64_t version_ = 0;
};

}  // namespace weakset::crdt
