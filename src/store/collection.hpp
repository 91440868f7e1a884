#pragma once

// CollectionState: the server-side representation of one fragment of a
// collection object — an ordered, duplicate-free membership list with a
// version counter and an operation log for replication and incremental
// (delta) membership reads.
//
// The paper (section 3, "dimension" discussion): "the collection object
// itself may be distributed; logically there is a single object, but
// physically different parts of it may be scattered across many nodes, or
// the single 'logical' object may be represented by a set of replicas.
// Whenever there is such distributed state, there is always the possibility
// of inconsistent data." Fragments model the scattering; the op log plus
// pull-based anti-entropy (see StoreServer) model the replicas and their
// staleness. The same log doubles as the server side of the client-facing
// delta-sync protocol (coll.read_delta, DESIGN.md decision 9): it is bounded
// (set_log_cap), and a reader whose cursor has fallen off the retained
// window is resynced with a full snapshot.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "store/object.hpp"

namespace weakset {

/// One membership mutation, as recorded in a fragment's log. Sequence
/// numbers are assigned by the fragment primary, contiguous from 1.
class CollectionOp {
 public:
  enum class Kind : std::uint8_t { kAdd, kRemove };

  CollectionOp() = default;
  CollectionOp(Kind kind, ObjectRef ref, std::uint64_t seq)
      : kind_(kind), ref_(ref), seq_(seq) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] ObjectRef ref() const noexcept { return ref_; }
  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }

  friend bool operator==(const CollectionOp&, const CollectionOp&) = default;

 private:
  Kind kind_ = Kind::kAdd;
  ObjectRef ref_;
  std::uint64_t seq_ = 0;
};

/// A bounded window over one op stream (DESIGN.md decision 9). Ops are
/// numbered contiguously from 1 as they are appended, and the window keeps
/// the most recent `cap` of them (0 = all). A follower whose cursor the
/// window covers catches up with since(); one it no longer covers needs the
/// stream's full state instead. Backs a fragment's CollectionOp log and an
/// OR-Set host's outbound dot-op log alike.
template <typename Op>
class OpLog {
 public:
  /// Bounds the window to the most recent `cap` ops (0 = unbounded),
  /// trimming at once if it already holds more.
  void set_cap(std::size_t cap) {
    cap_ = cap;
    trim();
  }

  /// Appends the op numbered last_seq() + 1.
  void append(const Op& op) {
    ops_.push_back(op);
    ++last_seq_;
    trim();
  }

  /// Number of the newest op ever appended (0 if none); survives trimming.
  [[nodiscard]] std::uint64_t last_seq() const noexcept { return last_seq_; }

  /// Number of the oldest op retained (last_seq() + 1 when empty).
  [[nodiscard]] std::uint64_t floor_seq() const noexcept {
    return last_seq_ - ops_.size() + 1;
  }

  /// True if since(after_seq) yields exactly the ops numbered past
  /// `after_seq`: all of them are retained, and the cursor is not past the
  /// end of the stream.
  [[nodiscard]] bool covers(std::uint64_t after_seq) const noexcept {
    return after_seq + 1 >= floor_seq() && after_seq <= last_seq_;
  }

  /// Replaces `out` with the ops numbered past `after_seq`, reusing its
  /// capacity (hot read paths pair this with VectorPool). Requires
  /// covers(after_seq).
  void since(std::uint64_t after_seq, std::vector<Op>& out) const {
    assert(covers(after_seq) && "a cursor off the window needs full state");
    const auto skip = static_cast<std::ptrdiff_t>(after_seq + 1 - floor_seq());
    out.assign(ops_.begin() + skip, ops_.end());
  }
  [[nodiscard]] std::vector<Op> since(std::uint64_t after_seq) const {
    std::vector<Op> out;
    since(after_seq, out);
    return out;
  }

  /// Empties the window and numbers the next op `seq` + 1 (a snapshot
  /// install or a recovery: the ops up to `seq` are not known here).
  void reset(std::uint64_t seq) {
    ops_.clear();
    last_seq_ = seq;
  }

 private:
  void trim() {
    while (cap_ != 0 && ops_.size() > cap_) ops_.pop_front();
  }

  std::deque<Op> ops_;
  std::size_t cap_ = 0;
  std::uint64_t last_seq_ = 0;
};

/// An ordered, duplicate-free membership list: push-back insertion,
/// swap-with-last O(1) removal ("order among elements does not matter",
/// section 1 — but it must be *deterministic*). Shared between the
/// server-side fragment state and the client-side delta cache precisely so
/// that both sides, replaying the same op sequence, materialise the same
/// member order — a delta-synced read yields members in the exact order a
/// full snapshot would have.
class MemberList {
 public:
  /// Adds `ref`; returns false (no change) if already present.
  bool insert(ObjectRef ref);

  /// Removes `ref` (swap-with-last); returns false if not present.
  bool erase(ObjectRef ref);

  [[nodiscard]] bool contains(ObjectRef ref) const {
    return index_.count(ref) > 0;
  }
  [[nodiscard]] const std::vector<ObjectRef>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }

  /// Replaces the whole list (full-snapshot install). `members` must be
  /// duplicate-free.
  void assign(std::vector<ObjectRef> members);

 private:
  std::vector<ObjectRef> members_;
  std::unordered_map<ObjectRef, std::size_t> index_;  // ref -> members_ index
};

/// Storage seam for a fragment's member set (DESIGN.md decision 17). When a
/// backing is installed, CollectionState keeps its members there — e.g. in
/// the block storage engine's paged leaf buckets, where the working set is
/// cache-resident and the rest lives on the simulated disk — instead of in
/// the in-memory MemberList. Lookups are non-const because a paged backing
/// faults the member's bucket into its cache.
class MemberBacking {
 public:
  virtual ~MemberBacking() = default;

  /// Adds `ref`; false if already present.
  virtual bool insert(ObjectRef ref) = 0;
  /// Removes `ref`; false if not present.
  virtual bool erase(ObjectRef ref) = 0;
  virtual bool contains(ObjectRef ref) = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// Full membership in the backing's deterministic stored order.
  [[nodiscard]] virtual std::vector<ObjectRef> materialize() const = 0;
  /// Replaces the whole membership (snapshot install, wipe = empty).
  virtual void assign(const std::vector<ObjectRef>& members) = 0;
};

/// Membership state of one collection fragment. Primaries mutate through
/// add()/remove(), which append to the log; replicas converge by applying
/// the primary's log in order through apply() — and log the applied ops
/// themselves, so a replica can serve delta reads too.
class CollectionState {
 public:
  explicit CollectionState(CollectionId id) : id_(id) {}

  [[nodiscard]] CollectionId id() const noexcept { return id_; }

  /// Adds a member (primary side). Returns false (and logs nothing) if the
  /// member was already present.
  bool add(ObjectRef ref);

  /// Removes a member (primary side). Returns false if it was not present.
  bool remove(ObjectRef ref);

  [[nodiscard]] bool contains(ObjectRef ref) const {
    return backing_ != nullptr ? backing_->contains(ref)
                               : list_.contains(ref);
  }
  /// Current members in insertion order (with swap-with-last removal). With
  /// a backing installed, materialized into a scratch buffer in the
  /// backing's stored order (deterministic, but its own). The scratch is
  /// memoized until the next mutation: callers may evaluate members() twice
  /// in one expression (begin()/end()) and need both to see one buffer.
  [[nodiscard]] const std::vector<ObjectRef>& members() const {
    if (backing_ == nullptr) return list_.members();
    if (scratch_stale_) {
      scratch_ = backing_->materialize();
      scratch_stale_ = false;
    }
    return scratch_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return backing_ != nullptr ? backing_->size() : list_.size();
  }

  /// Bumped on every effective mutation.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

  /// Highest op sequence number ever logged here (0 if none). Survives log
  /// truncation.
  [[nodiscard]] std::uint64_t last_seq() const noexcept {
    return log_.last_seq();
  }

  /// The retained history window for delta reads, anti-entropy and
  /// migration catch-up; followers further behind get a full snapshot.
  [[nodiscard]] const OpLog<CollectionOp>& log() const noexcept {
    return log_;
  }

  /// Bounds the op log to the most recent `cap` ops (0 = unbounded).
  void set_log_cap(std::size_t cap) { log_.set_cap(cap); }

  /// Replica side: applies a primary op. Ops at or below the already-applied
  /// sequence are ignored (idempotent); ops must otherwise arrive in order.
  /// Applied ops are re-logged locally so the replica can serve deltas.
  void apply(const CollectionOp& op);

  /// Replica side: installs a full snapshot received from the primary
  /// (anti-entropy recovery after the primary's log was truncated past this
  /// replica's cursor). Resets the local log; delta readers of this replica
  /// resync with a full read on their next request.
  void install(std::vector<ObjectRef> members, std::uint64_t version,
               std::uint64_t seq);

  /// Replica side: highest primary sequence applied so far.
  [[nodiscard]] std::uint64_t applied_seq() const noexcept {
    return applied_seq_;
  }

  // -- durability hooks (DESIGN.md decision 11) ----------------------------

  /// Incarnation of this fragment's op-sequence stream. Starts at 1; a
  /// primary that recovers from an amnesia crash bumps it, so sequence
  /// numbers it reissues can never be confused with pre-crash ops a reader
  /// or replica already absorbed.
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }
  void set_incarnation(std::uint64_t incarnation) noexcept {
    incarnation_ = incarnation;
  }

  /// Observer fired on every logged op (primary mutations, replica applies,
  /// and recovery replays alike) — the server's WAL append hook.
  void set_op_observer(std::function<void(const CollectionOp&)> observer) {
    op_observer_ = std::move(observer);
  }

  /// Amnesia crash: volatile state is gone. Resets everything to the
  /// freshly-constructed state (incarnation included — recovery restores the
  /// durable one).
  void wipe_volatile();

  /// Recovery: reinstates a checkpointed snapshot, cursors and all. The log
  /// is cleared (its contents are not in the checkpoint), so post-recovery
  /// delta readers and replicas resync via snapshot.
  void restore(std::vector<ObjectRef> members, std::uint64_t version,
               std::uint64_t last_seq, std::uint64_t applied_seq,
               std::uint64_t incarnation);

  /// Counters-only restore for a backed fragment whose members already sit
  /// in the backing (the block engine reattaches them from its superblock
  /// without materializing a snapshot — that is the point of block
  /// recovery).
  void restore_counters(std::uint64_t version, std::uint64_t last_seq,
                        std::uint64_t applied_seq, std::uint64_t incarnation);

  /// Installs (or clears, with nullptr) the member storage seam. Installing
  /// does not migrate members: the caller hosts fragments empty, seeds or
  /// recovers them afterwards. Not owned.
  void set_backing(MemberBacking* backing) noexcept {
    backing_ = backing;
    scratch_stale_ = true;
  }
  [[nodiscard]] MemberBacking* backing() const noexcept { return backing_; }

  /// Recovery: replays one WAL record on top of a restored checkpoint. Ops
  /// must arrive contiguously from last_seq() + 1. Every replayed op was
  /// effective when first logged, and replay starts from the same base
  /// state, so the version counter is reproduced faithfully.
  void replay(const CollectionOp& op);

 private:
  void record(CollectionOp::Kind kind, ObjectRef ref, std::uint64_t seq);
  bool member_insert(ObjectRef ref);
  bool member_erase(ObjectRef ref);
  void member_assign(std::vector<ObjectRef> members);

  CollectionId id_;
  MemberList list_;
  MemberBacking* backing_ = nullptr;
  mutable std::vector<ObjectRef> scratch_;  // members() buffer when backed
  mutable bool scratch_stale_ = true;       // re-materialize scratch_?
  OpLog<CollectionOp> log_;
  std::uint64_t version_ = 0;
  std::uint64_t applied_seq_ = 0;
  std::uint64_t incarnation_ = 1;
  std::function<void(const CollectionOp&)> op_observer_;
};

}  // namespace weakset
