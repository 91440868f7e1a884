#pragma once

// Observations: the spec layer's view of "the value of the set in a state".
//
// The paper (section 2.1) distinguishes an object from its value: s_σ is the
// value of set object s in state σ, and reachable(s)_σ the subset of its
// members accessible to the observer in σ. A SetObservation captures exactly
// that pair, taken from the simulator's omniscient vantage (ground truth), at
// one instant.
//
// Every run is checked, and a run captures two observations per invocation,
// so the values are flat: a RefSet is one sorted vector, built with one sort
// and tested by binary search, instead of a tree node per member.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "store/object.hpp"
#include "util/time.hpp"

namespace weakset::spec {

/// A set of object refs held as one sorted, duplicate-free vector, in
/// std::set<ObjectRef> order.
class RefSet {
 public:
  using const_iterator = std::vector<ObjectRef>::const_iterator;

  RefSet() = default;
  /// Implicit, so hand-built observations and traces (tests, fixtures) stay
  /// written as std::set.
  RefSet(const std::set<ObjectRef>& refs)  // NOLINT: implicit by design
      : refs_(refs.begin(), refs.end()) {}

  /// Sorts `refs` and drops duplicates.
  [[nodiscard]] static RefSet from_unsorted(std::vector<ObjectRef> refs) {
    std::sort(refs.begin(), refs.end());
    refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
    return RefSet{std::move(refs)};
  }
  /// Adopts `refs`, which must already be sorted and duplicate-free.
  [[nodiscard]] static RefSet from_sorted(std::vector<ObjectRef> refs) {
    return RefSet{std::move(refs)};
  }

  [[nodiscard]] bool contains(ObjectRef ref) const {
    return std::binary_search(refs_.begin(), refs_.end(), ref);
  }
  [[nodiscard]] std::size_t size() const noexcept { return refs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return refs_.empty(); }
  [[nodiscard]] const_iterator begin() const noexcept { return refs_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return refs_.end(); }

  friend bool operator==(const RefSet&, const RefSet&) = default;

 private:
  explicit RefSet(std::vector<ObjectRef> refs) : refs_(std::move(refs)) {}

  std::vector<ObjectRef> refs_;
};

/// a ⊆ b, for two ranges in ObjectRef order (RefSet or std::set).
template <typename A, typename B>
[[nodiscard]] bool subset(const A& a, const B& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// a = b, for two ranges in ObjectRef order (RefSet or std::set).
template <typename A, typename B>
[[nodiscard]] bool same_members(const A& a, const B& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// s_σ together with reachable(s)_σ for the observing client.
class SetObservation {
 public:
  SetObservation() = default;
  SetObservation(RefSet members, RefSet reachable)
      : members_(std::move(members)), reachable_(std::move(reachable)) {}

  /// The value of the set in this state.
  [[nodiscard]] const RefSet& members() const noexcept { return members_; }
  /// reachable(s)_σ: members the observer can currently access.
  [[nodiscard]] const RefSet& reachable() const noexcept { return reachable_; }

  [[nodiscard]] bool contains(ObjectRef ref) const {
    return members_.contains(ref);
  }
  [[nodiscard]] bool can_reach(ObjectRef ref) const {
    return reachable_.contains(ref);
  }

 private:
  RefSet members_;
  RefSet reachable_;
};

/// How one invocation of the elements iterator ended, mirroring the paper's
/// termination conditions (section 2.1): `suspends` (yielded control after
/// producing an element), `returns` (terminated normally), `fails` (signalled
/// the failure exception). kBlocked is the observable face of the optimistic
/// semantics' "may never return": the invocation did not complete within the
/// observation window.
enum class StepOutcome { kSuspended, kReturned, kFailed, kBlocked };

[[nodiscard]] constexpr std::string_view to_string(StepOutcome outcome) {
  switch (outcome) {
    case StepOutcome::kSuspended:
      return "suspends";
    case StepOutcome::kReturned:
      return "returns";
    case StepOutcome::kFailed:
      return "fails";
    case StepOutcome::kBlocked:
      return "blocked";
  }
  return "?";
}

}  // namespace weakset::spec
