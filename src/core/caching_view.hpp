#pragma once

// CachingSetView: a SetView decorator that adds a client-side object cache.
//
// Fetches hit the cache first (no RPC on a fresh hit); misses fall through
// to the inner view and fill the cache. Crucially, a cached object counts
// as *reachable* even when its home is partitioned away — the client holds
// a copy, so the object is accessible in the paper's sense. This formalises
// the availability nuance of the dynamic-set prefetch buffer: iterators
// over a caching view keep yielding cached members through failures.
//
// The price is currency: a hit may serve an old version, for as long as the
// entry stays cached. That trade is exactly the paper's "users are usually
// willing to tolerate some inconsistency for a gain in performance".
//
// Hoarding is the same cache put to work for disconnected operation. The
// paper's environment includes "(possibly mobile) workstations" where
// "disconnecting a mobile client from the network while traveling is an
// induced failure, yet consistency of data may be sacrificed to gain high
// performance and high availability" (section 1.1). While connected,
// hoard() captures the membership and fills the cache with every payload;
// from then on a membership read that fails (the disconnection) is served
// from the hoard, so iterators complete offline. The hoarded membership is
// frozen at hoard time, so offline runs may yield removed members (ghosts)
// and miss additions; the spec layer measures exactly that
// (tests/hoard_test.cpp). A view that never hoarded propagates the failure.

#include <optional>
#include <vector>

#include "core/set_view.hpp"
#include "store/cache.hpp"

namespace weakset {

struct HoardStats {
  std::uint64_t stale_membership_serves = 0;  ///< offline membership reads
  std::uint64_t hoards = 0;                   ///< completed hoard() calls
};

class CachingSetView final : public SetView {
 public:
  CachingSetView(SetView& inner, CacheOptions options = {})
      : inner_(inner), cache_(options) {}

  /// While connected: reads the membership and fetches every member not
  /// yet cached into the cache, in one fetch_many (one batch per home).
  /// Fails if the membership read fails; unreachable members are skipped
  /// (they simply won't be available offline).
  Task<Result<void>> hoard() {
    Result<std::vector<ObjectRef>> members = co_await inner_.read_members();
    if (!members) co_return std::move(members).error();
    std::vector<ObjectRef> misses;
    for (const ObjectRef ref : members.value()) {
      if (!cache_.contains(ref)) misses.push_back(ref);
    }
    if (!misses.empty()) {
      std::vector<Result<VersionedValue>> fetched =
          co_await inner_.fetch_many(misses);
      for (std::size_t i = 0; i < fetched.size(); ++i) {
        if (fetched[i]) cache_.put(misses[i], std::move(fetched[i]).value());
      }
    }
    hoarded_membership_ = std::move(members).value();
    ++hoard_stats_.hoards;
    co_return Ok();
  }

  [[nodiscard]] bool has_hoard() const noexcept {
    return hoarded_membership_.has_value();
  }

  /// Live read; the hoarded membership when the live read fails and there
  /// is a hoard to fall back on.
  Task<Result<std::vector<ObjectRef>>> read_members() override {
    Result<std::vector<ObjectRef>> live = co_await inner_.read_members();
    served_from_hoard_ = !live && hoarded_membership_.has_value();
    if (!served_from_hoard_) co_return live;
    ++hoard_stats_.stale_membership_serves;
    co_return *hoarded_membership_;
  }
  [[nodiscard]] MembershipReadMode last_read_mode() const override {
    // A hoard serve ships the (locally) full hoarded membership.
    if (served_from_hoard_) return MembershipReadMode{1, 0};
    return inner_.last_read_mode();
  }
  /// Snapshots and locks need the live system: a disconnected snapshot
  /// would be a contradiction in terms.
  Task<Result<std::vector<ObjectRef>>> snapshot_atomic(
      std::function<void()> on_cut) override {
    return inner_.snapshot_atomic(std::move(on_cut));
  }
  Task<Result<void>> freeze() override { return inner_.freeze(); }
  Task<void> unfreeze() override { return inner_.unfreeze(); }
  Task<Result<void>> pin_grow_only() override {
    return inner_.pin_grow_only();
  }
  Task<void> unpin_grow_only() override { return inner_.unpin_grow_only(); }

  [[nodiscard]] bool is_reachable(ObjectRef ref) const override {
    // A cached copy is accessible regardless of the network.
    return cache_.contains(ref) || inner_.is_reachable(ref);
  }

  [[nodiscard]] std::optional<Duration> distance(
      ObjectRef ref) const override {
    if (cache_.contains(ref)) return Duration::zero();  // local
    return inner_.distance(ref);
  }

  Task<Result<VersionedValue>> fetch(ObjectRef ref) override {
    if (auto hit = cache_.get(ref)) co_return std::move(*hit);
    Result<VersionedValue> value = co_await inner_.fetch(ref);
    if (value) cache_.put(ref, value.value());
    co_return value;
  }

  Task<std::vector<Result<VersionedValue>>> fetch_many(
      std::vector<ObjectRef> refs) override {
    // Serve hits locally, batch the misses through the inner view, and admit
    // every batch result — a prefetch window's worth of fetches warms the
    // cache in one go.
    std::vector<std::optional<Result<VersionedValue>>> slots(refs.size());
    std::vector<ObjectRef> misses;
    std::vector<std::size_t> miss_index;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (auto hit = cache_.get(refs[i])) {
        slots[i] = std::move(*hit);
      } else {
        misses.push_back(refs[i]);
        miss_index.push_back(i);
      }
    }
    if (!misses.empty()) {
      auto fetched = co_await inner_.fetch_many(std::move(misses));
      for (std::size_t j = 0; j < fetched.size(); ++j) {
        if (fetched[j]) {
          cache_.put(refs[miss_index[j]], fetched[j].value());
        }
        slots[miss_index[j]] = std::move(fetched[j]);
      }
    }
    std::vector<Result<VersionedValue>> out;
    out.reserve(refs.size());
    for (auto& slot : slots) out.push_back(std::move(*slot));
    co_return out;
  }

  [[nodiscard]] Simulator& sim() override { return inner_.sim(); }

  [[nodiscard]] ObjectCache& cache() noexcept { return cache_; }
  [[nodiscard]] const CacheStats& stats() const noexcept {
    return cache_.stats();
  }
  [[nodiscard]] const HoardStats& hoard_stats() const noexcept {
    return hoard_stats_;
  }

 private:
  SetView& inner_;
  ObjectCache cache_;
  std::optional<std::vector<ObjectRef>> hoarded_membership_;
  HoardStats hoard_stats_;
  bool served_from_hoard_ = false;
};

}  // namespace weakset
