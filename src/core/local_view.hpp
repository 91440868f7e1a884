#pragma once

// LocalSetView: a pure, in-process SetView for Layer A (unit tests and
// property sweeps). The test script mutates membership, toggles per-element
// reachability, and injects read failures directly; no RPC or replication is
// involved, so iterator semantics can be exercised in isolation.
//
// The view doubles as the spec layer's GroundTruth and maintains its own
// MembershipTimeline, since here the visible state *is* the ground truth.

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/set_view.hpp"
#include "spec/observation.hpp"
#include "spec/timeline.hpp"
#include "spec/trace.hpp"

namespace weakset {

class LocalSetView final : public SetView, public spec::GroundTruth {
 public:
  explicit LocalSetView(Simulator& sim) : sim_(sim) {
    timeline_.set_initial({});
  }

  // -- environment script ----------------------------------------------------

  /// Adds a member with a payload (version 1, bumped on re-add).
  void add(ObjectRef ref, std::string payload) {
    assert(!frozen_ && "mutation while frozen");
    if (members_index_.insert(ref).second) {
      members_.push_back(ref);
      timeline_.record(sim_.now(), CollectionOp::Kind::kAdd, ref);
    }
    auto [it, inserted] = payloads_.try_emplace(ref);
    it->second =
        VersionedValue{std::move(payload),
                       inserted ? 1 : it->second.version() + 1};
  }

  /// Removes a member (payload stays — the object exists, just not in the
  /// set; mirrors the repository, where removal does not delete the object).
  /// While grow-only-pinned, the removal is deferred (ghost member).
  void remove(ObjectRef ref) {
    assert(!frozen_ && "mutation while frozen");
    if (pin_count_ > 0) {
      deferred_removes_.push_back(ref);
      return;
    }
    if (members_index_.erase(ref) > 0) {
      std::erase(members_, ref);
      timeline_.record(sim_.now(), CollectionOp::Kind::kRemove, ref);
    }
  }

  /// Marks `ref` (un)reachable — the scripted partition.
  void set_reachable(ObjectRef ref, bool reachable) {
    if (reachable) {
      unreachable_.erase(ref);
    } else {
      unreachable_.insert(ref);
    }
  }

  /// Makes read_members()/snapshot_atomic() fail until cleared.
  void fail_reads(std::optional<Failure> failure) {
    read_failure_ = std::move(failure);
  }

  /// Scripted per-element network distance (for closest-first ordering).
  void set_distance(ObjectRef ref, Duration distance) {
    distances_[ref] = distance;
  }

  /// Simulated costs of a membership read and an element fetch.
  void set_latencies(Duration read, Duration fetch) {
    read_latency_ = read;
    fetch_latency_ = fetch;
  }

  [[nodiscard]] const spec::MembershipTimeline& timeline() const noexcept {
    return timeline_;
  }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  // -- SetView ---------------------------------------------------------------

  Task<Result<std::vector<ObjectRef>>> read_members() override {
    co_await sim_.delay(read_latency_);
    if (read_failure_) co_return *read_failure_;
    co_return members_;
  }

  Task<Result<std::vector<ObjectRef>>> snapshot_atomic(
      std::function<void()> on_cut) override {
    // A local set is trivially atomic.
    co_await sim_.delay(read_latency_);
    if (read_failure_) co_return *read_failure_;
    std::vector<ObjectRef> snapshot = members_;
    if (on_cut) on_cut();
    co_return snapshot;
  }

  Task<Result<void>> freeze() override {
    co_await sim_.delay(read_latency_);
    frozen_ = true;
    co_return Ok();
  }

  Task<void> unfreeze() override {
    co_await sim_.delay(read_latency_);
    frozen_ = false;
  }

  Task<Result<void>> pin_grow_only() override {
    co_await sim_.delay(read_latency_);
    ++pin_count_;
    co_return Ok();
  }

  Task<void> unpin_grow_only() override {
    co_await sim_.delay(read_latency_);
    if (pin_count_ > 0 && --pin_count_ == 0) {
      auto ghosts = std::move(deferred_removes_);
      deferred_removes_.clear();
      for (const ObjectRef ref : ghosts) remove(ref);
    }
  }

  [[nodiscard]] bool is_reachable(ObjectRef ref) const override {
    return unreachable_.count(ref) == 0;
  }

  [[nodiscard]] std::optional<Duration> distance(
      ObjectRef ref) const override {
    if (!is_reachable(ref)) return std::nullopt;
    const auto it = distances_.find(ref);
    return it == distances_.end() ? Duration::zero() : it->second;
  }

  Task<Result<VersionedValue>> fetch(ObjectRef ref) override {
    co_await sim_.delay(fetch_latency_);
    if (!is_reachable(ref)) {
      co_return Failure{FailureKind::kUnreachable, "scripted partition"};
    }
    const auto it = payloads_.find(ref);
    if (it == payloads_.end()) {
      co_return Failure{FailureKind::kNotFound, "no payload"};
    }
    co_return it->second;
  }

  Task<std::vector<Result<VersionedValue>>> fetch_many(
      std::vector<ObjectRef> refs) override {
    // Batched read: full latency for the first object, a quarter for each
    // extra — the same overlapped-read shape as the store server's
    // fetch_batch, so Layer A tests see realistic pipelining gains.
    Duration cost = fetch_latency_;
    if (refs.size() > 1) {
      cost = cost + (fetch_latency_ / 4) *
                        static_cast<std::int64_t>(refs.size() - 1);
    }
    co_await sim_.delay(cost);
    std::vector<Result<VersionedValue>> out;
    out.reserve(refs.size());
    for (const ObjectRef ref : refs) {
      if (!is_reachable(ref)) {
        out.emplace_back(Failure{FailureKind::kUnreachable,
                                 "scripted partition"});
        continue;
      }
      const auto it = payloads_.find(ref);
      if (it == payloads_.end()) {
        out.emplace_back(Failure{FailureKind::kNotFound, "no payload"});
      } else {
        out.emplace_back(it->second);
      }
    }
    co_return out;
  }

  [[nodiscard]] Simulator& sim() override { return sim_; }

  // -- spec::GroundTruth -----------------------------------------------------

  [[nodiscard]] spec::SetObservation observe() const override {
    spec::RefSet members = spec::RefSet::from_unsorted(members_);
    std::vector<ObjectRef> reachable;
    reachable.reserve(members.size());
    for (const ObjectRef ref : members) {
      if (is_reachable(ref)) reachable.push_back(ref);
    }
    return spec::SetObservation{
        std::move(members), spec::RefSet::from_sorted(std::move(reachable))};
  }

  [[nodiscard]] bool reachable(ObjectRef ref) const override {
    return is_reachable(ref);
  }

  [[nodiscard]] SimTime now() const override { return sim_.now(); }

 private:
  Simulator& sim_;
  std::vector<ObjectRef> members_;
  std::unordered_set<ObjectRef> members_index_;
  std::unordered_map<ObjectRef, VersionedValue> payloads_;
  std::unordered_set<ObjectRef> unreachable_;
  std::unordered_map<ObjectRef, Duration> distances_;
  std::optional<Failure> read_failure_;
  Duration read_latency_ = Duration::micros(10);
  Duration fetch_latency_ = Duration::micros(10);
  bool frozen_ = false;
  std::size_t pin_count_ = 0;
  std::vector<ObjectRef> deferred_removes_;
  spec::MembershipTimeline timeline_;
};

}  // namespace weakset
