#pragma once

// Adapters binding the spec layer to the simulated repository:
//
//   RepoGroundTruth  — the omniscient observer: true membership is the union
//                      of the fragment *primaries*' states (replicas are
//                      derived caches, not part of the set's value), and true
//                      reachability is evaluated against the live topology
//                      from the observing client's node.
//   TimelineProbe    — records every effective primary mutation of one
//                      collection into a MembershipTimeline, stamped with the
//                      simulated time.

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "spec/timeline.hpp"
#include "spec/trace.hpp"
#include "store/reachable.hpp"
#include "store/repository.hpp"

namespace weakset::spec {

/// Ground truth for one collection as seen by one observing client node.
class RepoGroundTruth final : public GroundTruth {
 public:
  RepoGroundTruth(Repository& repo, CollectionId collection, NodeId observer)
      : repo_(repo), collection_(collection), observer_(observer) {}

  [[nodiscard]] SetObservation observe() const override {
    // Every host's members go into one vector, sorted and deduplicated once;
    // reachability is then tested once per distinct member.
    std::vector<ObjectRef> all;
    const CollectionMeta& meta = repo_.meta(collection_);
    const bool orset = meta.mode() == ReplicationMode::kOrSet;
    for (const FragmentMeta& frag : meta.fragments()) {
      // Home-primary: the primary's state IS the fragment's value (replicas
      // are derived caches). OR-Set: every host is authoritative for the
      // writes it accepted, so the value is the merged union over all hosts.
      append_members(frag.primary(), orset, all);
      if (!orset) continue;
      for (const NodeId host : frag.replicas()) {
        append_members(host, orset, all);
      }
    }
    RefSet members = RefSet::from_unsorted(std::move(all));
    std::vector<ObjectRef> reachable;
    reachable.reserve(members.size());
    for (const ObjectRef ref : members) {
      if (this->reachable(ref)) reachable.push_back(ref);
    }
    return SetObservation{std::move(members),
                          RefSet::from_sorted(std::move(reachable))};
  }

  /// is_reachable() from the observer, which depends only on `ref`'s home:
  /// memoised per home node until the topology next changes.
  [[nodiscard]] bool reachable(ObjectRef ref) const override {
    const Topology& topo = repo_.topology();
    if (home_reachable_.size() != topo.node_count() ||
        memo_version_ != topo.version()) {
      home_reachable_.assign(topo.node_count(), kUnknown);
      memo_version_ = topo.version();
    }
    std::int8_t& slot = home_reachable_[ref.home().raw()];
    if (slot == kUnknown) slot = is_reachable(topo, observer_, ref) ? 1 : 0;
    return slot == 1;
  }

  [[nodiscard]] SimTime now() const override { return repo_.sim().now(); }

 private:
  /// Appends the members `host` holds of the collection (none if it is not
  /// running or not hosting it).
  void append_members(NodeId host, bool orset,
                      std::vector<ObjectRef>& out) const {
    StoreServer* server = repo_.server_at(host);
    if (server == nullptr) return;
    if (orset) {
      if (const crdt::OrSet* state = server->orset_state(collection_)) {
        const std::vector<ObjectRef> current = state->members();
        out.insert(out.end(), current.begin(), current.end());
      }
    } else if (const CollectionState* state = server->collection(collection_)) {
      out.insert(out.end(), state->members().begin(), state->members().end());
    }
  }

  static constexpr std::int8_t kUnknown = -1;

  Repository& repo_;
  CollectionId collection_;
  NodeId observer_;
  /// Per home node: 1 reachable, 0 not, kUnknown not yet asked, valid for
  /// topology version memo_version_.
  mutable std::vector<std::int8_t> home_reachable_;
  mutable std::uint64_t memo_version_ = 0;
};

/// Member sequences of every host of one OR-Set fragment, labelled by node —
/// the input spec::check_converged expects. Hosts that are not running (or
/// not hosting in OR-Set mode) are skipped.
inline std::vector<std::pair<std::string, std::vector<ObjectRef>>>
orset_fragment_members(Repository& repo, CollectionId id,
                       std::size_t fragment) {
  std::vector<std::pair<std::string, std::vector<ObjectRef>>> out;
  const FragmentMeta& frag = repo.meta(id).fragments().at(fragment);
  std::vector<NodeId> hosts{frag.primary()};
  hosts.insert(hosts.end(), frag.replicas().begin(), frag.replicas().end());
  for (const NodeId host : hosts) {
    StoreServer* server = repo.server_at(host);
    if (server == nullptr) continue;
    const crdt::OrSet* state = server->orset_state(id);
    if (state == nullptr) continue;
    out.emplace_back("node" + std::to_string(host.raw()), state->members());
  }
  return out;
}

/// Feeds one collection's effective primary mutations into a
/// MembershipTimeline. Construct it *before* the workload starts mutating;
/// it captures the current ground truth as the initial value.
class TimelineProbe {
 public:
  TimelineProbe(Repository& repo, CollectionId collection)
      : repo_(repo), collection_(collection) {
    // Initial value: current union of fragment primaries (all hosts under
    // OR-Set mode — every one is write-authoritative).
    std::set<ObjectRef> initial;
    const CollectionMeta& meta = repo.meta(collection);
    const bool orset = meta.mode() == ReplicationMode::kOrSet;
    for (const FragmentMeta& frag : meta.fragments()) {
      std::vector<NodeId> hosts{frag.primary()};
      if (orset) {
        hosts.insert(hosts.end(), frag.replicas().begin(),
                     frag.replicas().end());
      }
      for (const NodeId host : hosts) {
        StoreServer* server = repo.server_at(host);
        if (server == nullptr) continue;
        if (orset) {
          if (const crdt::OrSet* state = server->orset_state(collection)) {
            const std::vector<ObjectRef> current = state->members();
            initial.insert(current.begin(), current.end());
          }
        } else if (const CollectionState* state =
                       server->collection(collection)) {
          initial.insert(state->members().begin(), state->members().end());
        }
      }
    }
    timeline_.set_initial(std::move(initial));
    repo.add_mutation_observer(
        [this](CollectionId id, CollectionOp::Kind kind, ObjectRef ref) {
          if (id == collection_) {
            timeline_.record(repo_.sim().now(), kind, ref);
          }
        });
  }
  // The observer callback above captures `this`: the probe must not move.
  TimelineProbe(const TimelineProbe&) = delete;
  TimelineProbe& operator=(const TimelineProbe&) = delete;

  [[nodiscard]] const MembershipTimeline& timeline() const noexcept {
    return timeline_;
  }

 private:
  Repository& repo_;
  CollectionId collection_;
  MembershipTimeline timeline_;
};

}  // namespace weakset::spec
