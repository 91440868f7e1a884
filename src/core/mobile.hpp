#pragma once

// MobileSetClient: full disconnected operation for a weak set — reads from
// the hoard AND writes queued for reintegration.
//
// The paper's environment is "a network of (possibly mobile) workstations"
// where "disconnecting a mobile client from the network while traveling is
// an induced failure, yet consistency of data may be sacrificed to gain
// high performance and high availability" (section 1.1). Sacrificing
// consistency for writes means Coda-style optimistic update: while
// disconnected, add/remove apply to a local overlay (the client sees its
// own writes) and are queued; on reconnection, reintegrate() replays the
// log against the fragment primaries.
//
// Objects created while disconnected simply live on the mobile node's own
// store server — the repository model needs nothing special for them; only
// the membership link waits for reintegration.
//
// Reintegration outcomes per queued op:
//   applied     the primary accepted it and membership changed
//   redundant   the primary was already in the desired state (someone else
//               did the same thing meanwhile) — the set-semantics analogue
//               of a benign merge
//   failed      the primary is still unreachable; the op stays queued

#include <deque>
#include <vector>

#include "core/caching_view.hpp"
#include "core/repo_view.hpp"
#include "store/client.hpp"

namespace weakset {

/// Outcome counts of one reintegrate() call.
class ReintegrationReport {
 public:
  ReintegrationReport() = default;

  [[nodiscard]] std::size_t applied() const noexcept { return applied_; }
  [[nodiscard]] std::size_t redundant() const noexcept { return redundant_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool clean() const noexcept { return failed_ == 0; }

  void note_applied() { ++applied_; }
  void note_redundant() { ++redundant_; }
  void note_failed() { ++failed_; }

 private:
  std::size_t applied_ = 0;
  std::size_t redundant_ = 0;
  std::size_t failed_ = 0;
};

class MobileSetClient final : public SetView {
 public:
  MobileSetClient(RepositoryClient& client, CollectionId collection,
                  CacheOptions cache_options = {})
      : client_(client),
        collection_(collection),
        inner_(client, collection),
        hoard_(inner_, cache_options) {}

  /// While connected: capture membership and payloads (see
  /// CachingSetView::hoard).
  Task<Result<void>> hoard() { return hoard_.hoard(); }

  /// Adds `ref` to the set. Connected: a normal membership RPC.
  /// Disconnected (the RPC fails): applied to the local overlay and queued.
  Task<Result<bool>> add(ObjectRef ref) { return mutate(ref, true); }

  /// Removes `ref` from the set, with the same connected/disconnected split.
  Task<Result<bool>> remove(ObjectRef ref) { return mutate(ref, false); }

  /// Replays the queued log against the primaries. Ops that still cannot be
  /// delivered stay queued for the next attempt.
  Task<ReintegrationReport> reintegrate();

  [[nodiscard]] std::size_t pending_ops() const noexcept {
    return log_.size();
  }
  [[nodiscard]] const HoardStats& hoard_stats() const noexcept {
    return hoard_.hoard_stats();
  }

  // -- SetView (reads through hoard + overlay) -------------------------------

  Task<Result<std::vector<ObjectRef>>> read_members() override {
    Result<std::vector<ObjectRef>> base = co_await hoard_.read_members();
    if (!base) co_return base;
    co_return overlay(std::move(base).value());
  }
  [[nodiscard]] MembershipReadMode last_read_mode() const override {
    return hoard_.last_read_mode();
  }

  Task<Result<std::vector<ObjectRef>>> snapshot_atomic(
      std::function<void()> on_cut) override {
    return hoard_.snapshot_atomic(std::move(on_cut));
  }
  Task<Result<void>> freeze() override { return hoard_.freeze(); }
  Task<void> unfreeze() override { return hoard_.unfreeze(); }
  Task<Result<void>> pin_grow_only() override {
    return hoard_.pin_grow_only();
  }
  Task<void> unpin_grow_only() override { return hoard_.unpin_grow_only(); }

  [[nodiscard]] bool is_reachable(ObjectRef ref) const override {
    return hoard_.is_reachable(ref);
  }
  [[nodiscard]] std::optional<Duration> distance(
      ObjectRef ref) const override {
    return hoard_.distance(ref);
  }
  Task<Result<VersionedValue>> fetch(ObjectRef ref) override {
    return hoard_.fetch(ref);
  }
  Task<std::vector<Result<VersionedValue>>> fetch_many(
      std::vector<ObjectRef> refs) override {
    return hoard_.fetch_many(std::move(refs));
  }
  [[nodiscard]] Simulator& sim() override { return hoard_.sim(); }

 private:
  class PendingOp {
   public:
    PendingOp(bool is_add, ObjectRef ref, SimTime queued_at)
        : is_add_(is_add), ref_(ref), queued_at_(queued_at) {}
    [[nodiscard]] bool is_add() const noexcept { return is_add_; }
    [[nodiscard]] ObjectRef ref() const noexcept { return ref_; }
    [[nodiscard]] SimTime queued_at() const noexcept { return queued_at_; }

   private:
    bool is_add_;
    ObjectRef ref_;
    SimTime queued_at_;
  };

  Task<Result<bool>> mutate(ObjectRef ref, bool is_add);

  /// Applies the queued overlay to a base membership read.
  [[nodiscard]] std::vector<ObjectRef> overlay(
      std::vector<ObjectRef> base) const;

  RepositoryClient& client_;
  CollectionId collection_;
  RepoSetView inner_;
  CachingSetView hoard_;
  std::deque<PendingOp> log_;
};

}  // namespace weakset
