#include "store/collection.hpp"

#include <cassert>
#include <utility>

namespace weakset {

bool MemberList::insert(ObjectRef ref) {
  if (contains(ref)) return false;
  index_.emplace(ref, members_.size());
  members_.push_back(ref);
  return true;
}

bool MemberList::erase(ObjectRef ref) {
  const auto it = index_.find(ref);
  if (it == index_.end()) return false;
  const std::size_t pos = it->second;
  // Swap-with-last keeps removal O(1); membership order is not part of set
  // semantics ("order among elements does not matter", section 1).
  const ObjectRef last = members_.back();
  members_[pos] = last;
  members_.pop_back();
  index_.erase(it);
  if (last != ref) index_[last] = pos;
  return true;
}

void MemberList::assign(std::vector<ObjectRef> members) {
  members_ = std::move(members);
  index_.clear();
  index_.reserve(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const auto [it, inserted] = index_.emplace(members_[i], i);
    (void)it;
    assert(inserted && "duplicate member in snapshot install");
  }
}

bool CollectionState::member_insert(ObjectRef ref) {
  scratch_stale_ = true;
  return backing_ != nullptr ? backing_->insert(ref) : list_.insert(ref);
}

bool CollectionState::member_erase(ObjectRef ref) {
  scratch_stale_ = true;
  return backing_ != nullptr ? backing_->erase(ref) : list_.erase(ref);
}

void CollectionState::member_assign(std::vector<ObjectRef> members) {
  scratch_stale_ = true;
  if (backing_ != nullptr) {
    backing_->assign(members);
  } else {
    list_.assign(std::move(members));
  }
}

void CollectionState::record(CollectionOp::Kind kind, ObjectRef ref,
                             std::uint64_t seq) {
  assert(seq == last_seq() + 1 && "log sequences must stay contiguous");
  const CollectionOp op{kind, ref, seq};
  log_.append(op);
  if (op_observer_) op_observer_(op);
}

bool CollectionState::add(ObjectRef ref) {
  if (!member_insert(ref)) return false;
  ++version_;
  record(CollectionOp::Kind::kAdd, ref, last_seq() + 1);
  return true;
}

bool CollectionState::remove(ObjectRef ref) {
  if (!member_erase(ref)) return false;
  ++version_;
  record(CollectionOp::Kind::kRemove, ref, last_seq() + 1);
  return true;
}

void CollectionState::apply(const CollectionOp& op) {
  if (op.seq() <= applied_seq_) return;  // duplicate delivery
  assert(op.seq() == applied_seq_ + 1 && "replica log gap");
  applied_seq_ = op.seq();
  const bool effective = op.kind() == CollectionOp::Kind::kAdd
                             ? member_insert(op.ref())
                             : member_erase(op.ref());
  if (effective) ++version_;
  // Re-log regardless of local effect: the replica's log must mirror the
  // primary's sequence window so its own delta readers see the same stream.
  record(op.kind(), op.ref(), op.seq());
}

void CollectionState::install(std::vector<ObjectRef> members,
                              std::uint64_t version, std::uint64_t seq) {
  member_assign(std::move(members));
  version_ = version;
  applied_seq_ = seq;
  // The ops behind the snapshot are unknown; an empty log at floor seq+1
  // forces delta readers of this replica to take one full read and resync.
  log_.reset(seq);
}

void CollectionState::wipe_volatile() {
  // A backed fragment's members live in the block engine, whose wipe the
  // server drives separately; the in-memory list is cleared either way.
  if (backing_ == nullptr) list_.assign({});
  scratch_stale_ = true;
  log_.reset(0);
  version_ = 0;
  applied_seq_ = 0;
  incarnation_ = 1;
}

void CollectionState::restore(std::vector<ObjectRef> members,
                              std::uint64_t version, std::uint64_t last_seq,
                              std::uint64_t applied_seq,
                              std::uint64_t incarnation) {
  member_assign(std::move(members));
  restore_counters(version, last_seq, applied_seq, incarnation);
}

void CollectionState::restore_counters(std::uint64_t version,
                                       std::uint64_t last_seq,
                                       std::uint64_t applied_seq,
                                       std::uint64_t incarnation) {
  version_ = version;
  applied_seq_ = applied_seq;
  incarnation_ = incarnation;
  log_.reset(last_seq);
  // The backing's contents changed out from under us (block recovery
  // reattached the durable image); drop the memoized materialization.
  scratch_stale_ = true;
}

void CollectionState::replay(const CollectionOp& op) {
  assert(op.seq() == last_seq() + 1 && "WAL replay must stay contiguous");
  const bool effective = op.kind() == CollectionOp::Kind::kAdd
                             ? member_insert(op.ref())
                             : member_erase(op.ref());
  if (effective) ++version_;
  record(op.kind(), op.ref(), op.seq());
  applied_seq_ = op.seq();
}

}  // namespace weakset
