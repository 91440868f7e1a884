#pragma once

// Repository: the simulation-wide directory of servers, objects, and
// collections, plus setup-time factories.
//
// The directory (which node hosts which fragment/replica) is *versioned*:
// every CollectionMeta carries an epoch that the placement subsystem
// (src/placement, DESIGN.md decision 12) bumps when a live fragment
// migration commits. The map held here is the authority; clients may resolve
// placement through a cached DirectorySource (possibly stale — data-path
// servers reject stale-epoch requests with FailureKind::kWrongEpoch so the
// client refreshes and retries), mirroring a real wide-area naming service.
// With no migrations scheduled the directory never changes and behaves
// exactly like the static map earlier revisions assumed.

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/rpc.hpp"
#include "store/server.hpp"

namespace weakset {

/// How a collection's fragments replicate (DESIGN.md decision 16).
enum class ReplicationMode : std::uint8_t {
  /// One authoritative primary per fragment; replicas converge toward it by
  /// pull anti-entropy. Writes go to the primary only — a client
  /// partitioned from it is write-unavailable.
  kHomePrimary,
  /// Optimized OR-Set CRDT (src/crdt): every host of a fragment accepts
  /// writes locally and hosts exchange dot ops all-pairs; merges are
  /// deterministic and convergent. Writes stay available on any reachable
  /// host; reads may briefly diverge until anti-entropy quiesces.
  kOrSet,
};

/// Placement of one collection fragment: its primary and any replicas.
class FragmentMeta {
 public:
  explicit FragmentMeta(NodeId primary) : primary_(primary) {}

  [[nodiscard]] NodeId primary() const noexcept { return primary_; }
  [[nodiscard]] const std::vector<NodeId>& replicas() const noexcept {
    return replicas_;
  }
  void add_replica(NodeId node) { replicas_.push_back(node); }
  /// Rehomes the fragment (migration commit). Only Repository's epoch-bumping
  /// mutator calls this, so a primary change is never silent.
  void set_primary(NodeId node) noexcept { primary_ = node; }

 private:
  NodeId primary_;
  std::vector<NodeId> replicas_;
};

/// Placement of a whole (possibly fragmented) collection.
class CollectionMeta {
 public:
  CollectionMeta(CollectionId id, std::vector<FragmentMeta> fragments,
                 ReplicationMode mode = ReplicationMode::kHomePrimary)
      : id_(id), fragments_(std::move(fragments)), mode_(mode) {
    assert(!fragments_.empty());
  }

  /// Replication mode of every fragment. Clients branch on this: kOrSet
  /// writes route to the nearest reachable host instead of the primary.
  [[nodiscard]] ReplicationMode mode() const noexcept { return mode_; }

  [[nodiscard]] CollectionId id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<FragmentMeta>& fragments() const noexcept {
    return fragments_;
  }
  [[nodiscard]] std::size_t fragment_count() const noexcept {
    return fragments_.size();
  }

  /// Which fragment is responsible for `ref` (stable hash placement — the
  /// ref→fragment mapping never changes; migration moves where a fragment
  /// *lives*, not which refs it owns).
  [[nodiscard]] std::size_t fragment_of(ObjectRef ref) const {
    return std::hash<ObjectId>{}(ref.id()) % fragments_.size();
  }

  FragmentMeta& fragment(std::size_t index) { return fragments_.at(index); }

  /// Placement version: bumped by Repository on every committed fragment
  /// move. Starts at 1; a server answering kWrongEpoch reports its current
  /// value so stale clients can tell how far behind they are.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  void set_epoch(std::uint64_t epoch) noexcept { epoch_ = epoch; }

 private:
  CollectionId id_;
  std::vector<FragmentMeta> fragments_;
  ReplicationMode mode_ = ReplicationMode::kHomePrimary;
  std::uint64_t epoch_ = 1;
};

/// Client-side placement resolution hook. The default (none attached) reads
/// the Repository's authoritative map synchronously — always current, zero
/// extra RPCs, so every pre-placement baseline is byte-identical. A
/// placement::DirectoryClient implements this over a cached dir.lookup
/// view, which may lag the authority by an epoch until a kWrongEpoch
/// rejection triggers refresh().
class DirectorySource {
 public:
  virtual ~DirectorySource() = default;

  /// Current cached placement of `id` (synchronous; never blocks).
  [[nodiscard]] virtual const CollectionMeta& meta(CollectionId id) = 0;

  /// A data-path server rejected an epoch older than `current_epoch`:
  /// refresh the cached entry (one dir.lookup round trip unless the cache
  /// already caught up). Resolves true once the cache is at or past
  /// `current_epoch` — the caller's cue to retry exactly once.
  virtual Task<bool> refresh(CollectionId id, std::uint64_t current_epoch) = 0;
};

/// Owns the store servers of one simulated deployment and mints object /
/// collection / client identities. Also fans effective primary mutations out
/// to registered observers (the spec layer's timeline probes).
class Repository : public MutationSink {
 public:
  /// Observer of effective primary mutations.
  using MutationObserver =
      std::function<void(CollectionId, CollectionOp::Kind, ObjectRef)>;

  /// Observer of directory changes (fragment rehomed, epoch bumped). The
  /// placement DirectoryService uses this to count epoch bumps.
  using DirectoryObserver =
      std::function<void(CollectionId, std::uint64_t /*epoch*/)>;

  /// Registers with the topology's liveness listeners, so crash/restart
  /// transitions reach the store servers (amnesia wipe + recovery).
  explicit Repository(RpcNetwork& net);
  ~Repository() override;
  Repository(const Repository&) = delete;
  Repository& operator=(const Repository&) = delete;

  /// Starts a store server on `node`.
  StoreServer& add_server(NodeId node, StoreServerOptions options = {});

  [[nodiscard]] StoreServer* server_at(NodeId node);

  /// Nodes that run a store server, in creation order.
  [[nodiscard]] const std::vector<NodeId>& server_nodes() const noexcept {
    return server_nodes_;
  }

  /// Setup-time: creates an object with `data` on `home`'s disk.
  ObjectRef create_object(NodeId home, std::string data);

  /// Creates a collection fragmented across the given primaries (one
  /// fragment per entry; a single entry makes an unfragmented collection).
  /// Under kOrSet the "primaries" are just each fragment's anchor host —
  /// every host added later is an equal multi-master peer.
  CollectionId create_collection(
      const std::vector<NodeId>& primaries,
      ReplicationMode mode = ReplicationMode::kHomePrimary);

  /// Adds a replica of `fragment` on `node`; starts its anti-entropy puller.
  /// Under kOrSet this adds an equal write-accepting host and wires the
  /// all-pairs peer links.
  void add_replica(CollectionId id, std::size_t fragment, NodeId node);

  [[nodiscard]] const CollectionMeta& meta(CollectionId id) const;

  /// Current placement epoch of `id` (1 until the first migration commits).
  [[nodiscard]] std::uint64_t directory_epoch(CollectionId id) const {
    return meta(id).epoch();
  }

  /// Commits a fragment move: rehomes `fragment` of `id` onto `node`, bumps
  /// the collection's epoch, and notifies directory observers. Called by the
  /// migration engine at the instant authority transfers (no awaits between
  /// the data handoff and this bump — see DESIGN.md decision 12). Returns
  /// the new epoch.
  std::uint64_t set_fragment_primary(CollectionId id, std::size_t fragment,
                                     NodeId node);

  /// Registers an observer of directory changes (placement directory).
  void add_directory_observer(DirectoryObserver observer) {
    directory_observers_.push_back(std::move(observer));
  }

  /// Setup-time: inserts `ref` directly at the responsible fragment primary,
  /// bypassing RPC. Workload builders use this for initial membership.
  void seed_member(CollectionId id, ObjectRef ref);

  /// Tags collection `id` as belonging to admission tenant `tenant` on every
  /// server, current and future (DESIGN.md decision 15). Untagged
  /// collections share tenant 0.
  void tag_tenant(CollectionId id, std::uint64_t tenant);

  /// Fresh unique token for a client (used by the freeze protocol).
  [[nodiscard]] std::uint64_t next_client_token() { return ++client_tokens_; }

  /// Registers an observer of effective primary mutations (spec probes).
  void add_mutation_observer(MutationObserver observer) {
    observers_.push_back(std::move(observer));
  }

  /// MutationSink: servers report their effective primary mutations here.
  void on_mutation(CollectionId id, CollectionOp::Kind kind,
                   ObjectRef ref) override {
    for (const auto& observer : observers_) observer(id, kind, ref);
  }

  /// Stops all servers' background daemons so the simulator can drain.
  void stop_all_daemons();

  [[nodiscard]] RpcNetwork& net() noexcept { return net_; }
  [[nodiscard]] Topology& topology() noexcept { return net_.topology(); }
  [[nodiscard]] Simulator& sim() noexcept { return net_.sim(); }

 private:
  RpcNetwork& net_;
  std::unordered_map<NodeId, std::unique_ptr<StoreServer>> servers_;
  std::vector<NodeId> server_nodes_;
  std::unordered_map<CollectionId, CollectionMeta> metas_;
  /// Admission-tenant tags, replayed onto servers added later.
  std::unordered_map<CollectionId, std::uint64_t> tenant_tags_;
  IdSequence<ObjectTag> object_ids_;
  IdSequence<CollectionTag> collection_ids_;
  std::uint64_t client_tokens_ = 0;
  std::vector<MutationObserver> observers_;
  std::vector<DirectoryObserver> directory_observers_;
  std::size_t liveness_token_ = 0;
};

}  // namespace weakset
