#pragma once

// RPC request/response payload types for the store protocol.
//
// Every type here has user-provided constructors (non-aggregate) — required
// by the GCC 12 coroutine workaround documented in DESIGN.md decision 6.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "crdt/orset.hpp"
#include "store/collection.hpp"
#include "store/object.hpp"
#include "util/result.hpp"
#include "wal/wal.hpp"

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

/// coll.snapshot: read one fragment's full membership. Reply: DeltaReply,
/// always a full snapshot.
class SnapshotRequest {
 public:
  explicit SnapshotRequest(CollectionId id) : id_(id) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }

 private:
  CollectionId id_;
};

/// A follower's cursor into one fragment's op stream, presented to get the
/// ops past it: coll.read_delta (a client's cached materialisation, 0 = no
/// cache), coll.pull (a replica's applied cursor) and orset.pull (this
/// host's cursor into a peer's outbound dot-op log). The server answers
/// with just the ops past the cursor when its retained log window still
/// covers it, and with the full state otherwise. See DESIGN.md decision 9.
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

/// Reply to coll.snapshot, coll.read_delta and coll.pull: either the ops
/// since the presented cursor or a full membership snapshot, plus the
/// server's version and op cursor at the instant the reply was sliced. The
/// follower advances to (version, seq) either way.
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

/// mig.ops and mig.apply: ops of a live migration's source stream for the
/// target's staging copy (src/placement, DESIGN.md decision 12). mig.ops
/// carries the contiguous catch-up batch since the source's cursor;
/// mig.apply carries the one op a dual-home forward commits, which the
/// target applies *without* announcing to the mutation sink — the source
/// already did, and ground truth must see each op exactly once. Reply:
/// HandoffApplyReply.
class SyncRequest {
 public:
  SyncRequest(CollectionId id, std::vector<CollectionOp> ops,
              std::uint64_t incarnation)
      : id_(id), ops_(std::move(ops)), incarnation_(incarnation) {}
  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<CollectionOp>& ops() const noexcept {
    return ops_;
  }
  /// Incarnation of the source's op stream. A staging copy on a different
  /// incarnation refuses the ops (its cursor is from another stream, and
  /// the migration is doomed to abort anyway).
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }

 private:
  CollectionId id_;
  std::vector<CollectionOp> ops_;
  std::uint64_t incarnation_;
};

/// Reply to mig.ops and mig.apply: the staging copy's ack cursor, which the
/// source's catch-up loop advances to.
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

/// Reply to orset.pull (ReplicationMode::kOrSet, DESIGN.md decision 16):
/// either the peer's local dot ops past the presented cursor, or — when the
/// cursor fell off the peer's bounded log or names a previous incarnation —
/// its full state, the same image a checkpoint stores, which the puller
/// joins. `end_seq` is the peer's log frontier; the puller adopts it as its
/// new cursor either way.
class OrSetPullReply {
 public:
  static OrSetPullReply delta(std::vector<crdt::DotOp> ops,
                              std::uint64_t end_seq,
                              std::uint64_t incarnation) {
    return OrSetPullReply{std::move(ops), {}, false, end_seq, incarnation};
  }
  static OrSetPullReply full_state(wal::OrSetImage image,
                                   std::uint64_t end_seq,
                                   std::uint64_t incarnation) {
    return OrSetPullReply{{}, std::move(image), true, end_seq, incarnation};
  }

  [[nodiscard]] bool is_full_state() const noexcept { return is_full_state_; }
  /// Delta only: the ops past the cursor, in log order.
  [[nodiscard]] const std::vector<crdt::DotOp>& ops() const noexcept {
    return ops_;
  }
  /// Full state only: the peer's dot context and live dots.
  [[nodiscard]] const wal::OrSetImage& image() const noexcept {
    return image_;
  }
  [[nodiscard]] std::uint64_t end_seq() const noexcept { return end_seq_; }
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }
  /// Entries shipped on the wire — the cost-model unit.
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return ops_.size() + image_.live.size() + image_.context_vector.size() +
           image_.context_cloud.size();
  }

 private:
  OrSetPullReply(std::vector<crdt::DotOp> ops, wal::OrSetImage image,
                 bool is_full_state, std::uint64_t end_seq,
                 std::uint64_t incarnation)
      : ops_(std::move(ops)),
        image_(std::move(image)),
        is_full_state_(is_full_state),
        end_seq_(end_seq),
        incarnation_(incarnation) {}

  std::vector<crdt::DotOp> ops_;
  wal::OrSetImage image_;
  bool is_full_state_;
  std::uint64_t end_seq_;
  std::uint64_t incarnation_;
};

}  // namespace weakset::msg
