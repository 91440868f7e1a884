#pragma once

// RPC request/response payload types for the store protocol.
//
// Every type here has user-provided constructors (non-aggregate) — required
// by the GCC 12 coroutine workaround documented in DESIGN.md decision 6.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "store/collection.hpp"
#include "store/object.hpp"
#include "util/result.hpp"

namespace weakset::msg {

/// store.fetch: read an object's payload.
class FetchRequest {
 public:
  explicit FetchRequest(ObjectId id) : id_(id) {}
  [[nodiscard]] ObjectId id() const noexcept { return id_; }

 private:
  ObjectId id_;
};

/// store.fetch_batch: read many objects' payloads in one round trip. The
/// server charges one full disk read for the first object and only a small
/// per-object increment for the rest (the reads overlap at the disk queue),
/// so a batch costs one RTT + a little, instead of N of each. Per-object
/// failures (e.g. kNotFound) travel inside the reply; the RPC as a whole
/// fails only on transport failures.
class FetchBatchRequest {
 public:
  explicit FetchBatchRequest(std::vector<ObjectId> ids)
      : ids_(std::move(ids)) {}
  [[nodiscard]] const std::vector<ObjectId>& ids() const noexcept {
    return ids_;
  }

 private:
  std::vector<ObjectId> ids_;
};

/// Reply to store.fetch_batch: one Result per requested id, in request order.
class FetchBatchReply {
 public:
  explicit FetchBatchReply(std::vector<Result<VersionedValue>> results)
      : results_(std::move(results)) {}
  [[nodiscard]] const std::vector<Result<VersionedValue>>& results()
      const noexcept {
    return results_;
  }
  [[nodiscard]] std::vector<Result<VersionedValue>>&& take_results() && {
    return std::move(results_);
  }

 private:
  std::vector<Result<VersionedValue>> results_;
};

/// store.put: create/overwrite an object's payload. Reply: new version.
class PutRequest {
 public:
  PutRequest(ObjectId id, std::string data)
      : id_(id), data_(std::move(data)) {}
  [[nodiscard]] ObjectId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& data() const noexcept { return data_; }
  [[nodiscard]] std::string&& take_data() && { return std::move(data_); }

 private:
  ObjectId id_;
  std::string data_;
};

/// coll.snapshot: read one fragment's full membership.
class SnapshotRequest {
 public:
  explicit SnapshotRequest(CollectionId id) : id_(id) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }

 private:
  CollectionId id_;
};

/// Reply to coll.snapshot.
class SnapshotReply {
 public:
  SnapshotReply(std::vector<ObjectRef> members, std::uint64_t version)
      : members_(std::move(members)), version_(version) {}
  [[nodiscard]] const std::vector<ObjectRef>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] std::vector<ObjectRef>&& take_members() && {
    return std::move(members_);
  }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  std::vector<ObjectRef> members_;
  std::uint64_t version_;
};

/// coll.read_delta: incremental membership read. The client presents the op
/// sequence cursor of its cached materialisation of this fragment (0 = no
/// cache); the server answers with just the ops since that cursor when its
/// retained log window still covers it, and with a full snapshot otherwise
/// (first contact, truncated log, or a delta that would outweigh the
/// snapshot). See DESIGN.md decision 9.
class DeltaRequest {
 public:
  DeltaRequest(CollectionId id, std::uint64_t since_seq,
               std::uint64_t since_incarnation = 0)
      : id_(id),
        since_seq_(since_seq),
        since_incarnation_(since_incarnation) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t since_seq() const noexcept { return since_seq_; }
  /// Incarnation of the op stream the cursor belongs to. A server whose
  /// fragment is on a different incarnation (amnesia recovery happened in
  /// between) answers with a full snapshot — the cursor's sequence numbers
  /// no longer name the same ops.
  [[nodiscard]] std::uint64_t since_incarnation() const noexcept {
    return since_incarnation_;
  }

 private:
  CollectionId id_;
  std::uint64_t since_seq_;
  std::uint64_t since_incarnation_;
};

/// Reply to coll.read_delta: either the ops since the presented cursor or a
/// full membership snapshot, plus the server's current version and op
/// cursor. The client advances its cache to (version, seq) either way.
class DeltaReply {
 public:
  static DeltaReply delta(std::vector<CollectionOp> ops, std::uint64_t version,
                          std::uint64_t seq, std::uint64_t incarnation = 0) {
    return DeltaReply{true, {}, std::move(ops), version, seq, incarnation};
  }
  static DeltaReply full_snapshot(std::vector<ObjectRef> members,
                                  std::uint64_t version, std::uint64_t seq,
                                  std::uint64_t incarnation = 0) {
    return DeltaReply{false, std::move(members), {}, version, seq,
                      incarnation};
  }

  [[nodiscard]] bool is_delta() const noexcept { return is_delta_; }
  [[nodiscard]] const std::vector<ObjectRef>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] std::vector<ObjectRef>&& take_members() && {
    return std::move(members_);
  }
  [[nodiscard]] const std::vector<CollectionOp>& ops() const noexcept {
    return ops_;
  }
  /// Drains the op buffer, so a consumer can recycle it (VectorPool).
  [[nodiscard]] std::vector<CollectionOp>&& take_ops() && {
    return std::move(ops_);
  }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }
  /// Incarnation the cursor (version, seq) belongs to; the client stores it
  /// alongside its cache so the next delta request names its stream.
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }
  /// Entries shipped on the wire (members or ops) — the cost-model unit.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return is_delta_ ? ops_.size() : members_.size();
  }

 private:
  DeltaReply(bool is_delta, std::vector<ObjectRef> members,
             std::vector<CollectionOp> ops, std::uint64_t version,
             std::uint64_t seq, std::uint64_t incarnation)
      : is_delta_(is_delta),
        members_(std::move(members)),
        ops_(std::move(ops)),
        version_(version),
        seq_(seq),
        incarnation_(incarnation) {}

  bool is_delta_;
  std::vector<ObjectRef> members_;
  std::vector<CollectionOp> ops_;
  std::uint64_t version_;
  std::uint64_t seq_;
  std::uint64_t incarnation_;
};

/// coll.add / coll.remove: mutate one fragment's membership.
/// Reply: MembershipReply.
class MembershipRequest {
 public:
  enum class Op : std::uint8_t { kAdd, kRemove };
  MembershipRequest(CollectionId id, ObjectRef ref, Op op)
      : id_(id), ref_(ref), op_(op) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] ObjectRef ref() const noexcept { return ref_; }
  [[nodiscard]] Op op() const noexcept { return op_; }

 private:
  CollectionId id_;
  ObjectRef ref_;
  Op op_;
};

/// Reply to coll.add / coll.remove.
class MembershipReply {
 public:
  MembershipReply(bool changed, std::uint64_t version)
      : changed_(changed), version_(version) {}
  [[nodiscard]] bool changed() const noexcept { return changed_; }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  bool changed_;
  std::uint64_t version_;
};

/// coll.size: fragment membership count. Reply: std::uint64_t.
class SizeRequest {
 public:
  explicit SizeRequest(CollectionId id) : id_(id) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }

 private:
  CollectionId id_;
};

/// coll.freeze / coll.unfreeze: the distributed-locking substrate for the
/// strong (immutable / snapshot) semantics. A freeze blocks mutators until
/// released or until the lease expires (crash safety).
class FreezeRequest {
 public:
  FreezeRequest(CollectionId id, std::uint64_t token, bool freeze)
      : id_(id), token_(token), freeze_(freeze) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t token() const noexcept { return token_; }
  [[nodiscard]] bool freeze() const noexcept { return freeze_; }

 private:
  CollectionId id_;
  std::uint64_t token_;
  bool freeze_;
};

/// coll.pin / coll.unpin: the section 3.3 implementation trick for enforcing
/// grow-only-during-a-run cheaply: "we can prevent objects from being
/// deleted until the iterator terminates. Alternatively, we can create
/// copies of any deleted objects and then garbage collect these 'ghost'
/// copies upon termination." While a fragment is pinned, additions proceed
/// but removals are deferred (the member lingers as a ghost); they apply
/// when the last pin is released.
class PinRequest {
 public:
  PinRequest(CollectionId id, bool pin) : id_(id), pin_(pin) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] bool pin() const noexcept { return pin_; }

 private:
  CollectionId id_;
  bool pin_;
};

/// mig.ops: a live migration's catch-up step (src/placement) — the source
/// ships the contiguous ops since its cursor to the target's staging copy.
/// Reply: SyncReply (the source uses applied_seq as the ack cursor).
class SyncRequest {
 public:
  SyncRequest(CollectionId id, std::vector<CollectionOp> ops,
              std::uint64_t incarnation = 0)
      : id_(id), ops_(std::move(ops)), incarnation_(incarnation) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<CollectionOp>& ops() const noexcept {
    return ops_;
  }
  /// Drains the op buffer, so a consumer can recycle it (VectorPool).
  [[nodiscard]] std::vector<CollectionOp>&& take_ops() && {
    return std::move(ops_);
  }
  /// Incarnation of the source's op stream. A staging copy on a different
  /// incarnation refuses the batch (its cursor is from another stream).
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

 private:
  CollectionId id_;
  std::vector<CollectionOp> ops_;
  std::uint64_t incarnation_;
};

/// Reply to mig.ops: the staging copy's ack cursor plus the incarnation it
/// is on.
class SyncReply {
 public:
  SyncReply(std::uint64_t applied_seq, std::uint64_t incarnation)
      : applied_seq_(applied_seq), incarnation_(incarnation) {}
  [[nodiscard]] std::uint64_t applied_seq() const noexcept {
    return applied_seq_;
  }
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

 private:
  std::uint64_t applied_seq_;
  std::uint64_t incarnation_;
};

/// coll.pull: anti-entropy — replica asks primary for ops after a sequence
/// number. Reply: PullReply.
class PullRequest {
 public:
  PullRequest(CollectionId id, std::uint64_t after_seq,
              std::uint64_t incarnation = 0)
      : id_(id), after_seq_(after_seq), incarnation_(incarnation) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t after_seq() const noexcept { return after_seq_; }
  /// Incarnation the replica's cursor belongs to; on mismatch the primary
  /// answers with a snapshot.
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

 private:
  CollectionId id_;
  std::uint64_t after_seq_;
  std::uint64_t incarnation_;
};

/// Reply to coll.pull: the ops after the replica's cursor — or, when the
/// primary's bounded log no longer reaches back that far, a full snapshot
/// (members + version + seq) the replica installs wholesale.
class PullReply {
 public:
  explicit PullReply(std::vector<CollectionOp> ops,
                     std::uint64_t incarnation = 0)
      : is_snapshot_(false),
        ops_(std::move(ops)),
        version_(0),
        seq_(0),
        incarnation_(incarnation) {}
  static PullReply snapshot(std::vector<ObjectRef> members,
                            std::uint64_t version, std::uint64_t seq,
                            std::uint64_t incarnation = 0) {
    PullReply reply{{}};
    reply.is_snapshot_ = true;
    reply.members_ = std::move(members);
    reply.version_ = version;
    reply.seq_ = seq;
    reply.incarnation_ = incarnation;
    return reply;
  }

  [[nodiscard]] bool is_snapshot() const noexcept { return is_snapshot_; }
  [[nodiscard]] const std::vector<CollectionOp>& ops() const noexcept {
    return ops_;
  }
  /// Drains the op buffer, so a consumer can recycle it (VectorPool).
  [[nodiscard]] std::vector<CollectionOp>&& take_ops() && {
    return std::move(ops_);
  }
  [[nodiscard]] std::vector<ObjectRef>&& take_members() && {
    return std::move(members_);
  }
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }
  /// Incarnation of the op stream the reply's cursor belongs to; a replica
  /// installing a snapshot adopts it.
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

 private:
  bool is_snapshot_;
  std::vector<CollectionOp> ops_;
  std::vector<ObjectRef> members_;
  std::uint64_t version_;
  std::uint64_t seq_;
  std::uint64_t incarnation_;
};

/// One OR-Set dot op on the wire (ReplicationMode::kOrSet, DESIGN.md
/// decision 16): insert or kill of one (element, dot) pair. The wire twin of
/// crdt::DotOp — messages stay store-layer types so weakset_net need not
/// know the CRDT library.
class OrSetWireOp {
 public:
  static constexpr std::uint8_t kInsert = 0;
  static constexpr std::uint8_t kKill = 1;

  OrSetWireOp() = default;
  OrSetWireOp(std::uint8_t kind, ObjectRef element, std::uint64_t origin,
              std::uint64_t counter)
      : kind_(kind), element_(element), origin_(origin), counter_(counter) {}

  [[nodiscard]] std::uint8_t kind() const noexcept { return kind_; }
  [[nodiscard]] ObjectRef element() const noexcept { return element_; }
  [[nodiscard]] std::uint64_t origin() const noexcept { return origin_; }
  [[nodiscard]] std::uint64_t counter() const noexcept { return counter_; }

 private:
  std::uint8_t kind_ = kInsert;
  ObjectRef element_;
  std::uint64_t origin_ = 0;
  std::uint64_t counter_ = 0;
};

/// Reply to orset.pull: either the peer's local dot ops after the presented
/// cursor, or — when the cursor fell off the peer's bounded log or names a
/// previous incarnation — a full state (dot context + live dots) the puller
/// merges via OrSet::join. `end_seq` is the peer's log frontier; the puller
/// adopts it as its new cursor either way.
class OrSetPullReply {
 public:
  static OrSetPullReply delta(std::vector<OrSetWireOp> ops,
                              std::uint64_t end_seq,
                              std::uint64_t incarnation) {
    return OrSetPullReply{false, std::move(ops), {}, {}, end_seq, incarnation};
  }
  static OrSetPullReply snapshot(
      std::vector<OrSetWireOp> live,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> context_vector,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> context_cloud,
      std::uint64_t end_seq, std::uint64_t incarnation) {
    return OrSetPullReply{true,    std::move(live), std::move(context_vector),
                          std::move(context_cloud), end_seq, incarnation};
  }

  [[nodiscard]] bool is_snapshot() const noexcept { return is_snapshot_; }
  /// Delta: ops after the cursor. Snapshot: every live (element, dot) as an
  /// insert op.
  [[nodiscard]] const std::vector<OrSetWireOp>& ops() const noexcept {
    return ops_;
  }
  /// Snapshot only: the peer's dot-context version vector as (origin,
  /// counter) pairs, and its out-of-order cloud as (origin, counter) dots.
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
  context_vector() const noexcept {
    return context_vector_;
  }
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
  context_cloud() const noexcept {
    return context_cloud_;
  }
  [[nodiscard]] std::uint64_t end_seq() const noexcept { return end_seq_; }
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }
  /// Entries shipped on the wire — the cost-model unit.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return ops_.size() + context_vector_.size() + context_cloud_.size();
  }

 private:
  OrSetPullReply(
      bool is_snapshot, std::vector<OrSetWireOp> ops,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> context_vector,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> context_cloud,
      std::uint64_t end_seq, std::uint64_t incarnation)
      : is_snapshot_(is_snapshot),
        ops_(std::move(ops)),
        context_vector_(std::move(context_vector)),
        context_cloud_(std::move(context_cloud)),
        end_seq_(end_seq),
        incarnation_(incarnation) {}

  bool is_snapshot_;
  std::vector<OrSetWireOp> ops_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> context_vector_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> context_cloud_;
  std::uint64_t end_seq_;
  std::uint64_t incarnation_;
};

/// mig.apply: dual-home forwarding during a live fragment migration
/// (src/placement, DESIGN.md decision 12). While the handoff window is open
/// the source primary forwards every committed membership op to the migration
/// target before acking, so the staged copy never misses a mutation. The
/// target applies into its staging state *without* announcing to the mutation
/// sink — the source already did, and ground truth must see each op exactly
/// once. Reply: HandoffApplyReply.
class HandoffApplyRequest {
 public:
  HandoffApplyRequest(CollectionId id, CollectionOp op,
                      std::uint64_t incarnation)
      : id_(id), op_(op), incarnation_(incarnation) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] const CollectionOp& op() const noexcept { return op_; }
  /// Incarnation of the source's op stream; a staging copy on a different
  /// incarnation applies nothing (the migration is doomed to abort anyway).
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

 private:
  CollectionId id_;
  CollectionOp op_;
  std::uint64_t incarnation_;
};

/// Reply to mig.apply: the staging copy's ack cursor, which the migration's
/// finish step compares against the source's last_seq for completeness.
class HandoffApplyReply {
 public:
  explicit HandoffApplyReply(std::uint64_t applied_seq)
      : applied_seq_(applied_seq) {}
  [[nodiscard]] std::uint64_t applied_seq() const noexcept {
    return applied_seq_;
  }

 private:
  std::uint64_t applied_seq_;
};

}  // namespace weakset::msg
