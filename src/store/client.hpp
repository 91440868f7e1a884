#pragma once

// RepositoryClient: the client-side library a weak-set iterator (or any
// application process) uses to talk to the repository from its own node.
//
// Reads come in three strengths, mirroring the cost ladder in section 3 of
// the paper:
//   - read_fragment / read_all      loose reads, optionally from the nearest
//                                   replica (fast, possibly stale)
//   - snapshot_atomic               freeze-read-unfreeze across all fragments
//                                   (the "one atomic action" of section 3.2,
//                                   "extremely expensive in practice")
//   - freeze_all / unfreeze_all     the distributed lock itself (section 3.1)

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "store/messages.hpp"
#include "store/repository.hpp"

namespace weakset {

/// Replica-selection policy for membership reads.
enum class ReadPolicy {
  kPrimaryOnly,  ///< always read the fragment primary (fresh, may be far)
  kNearest,      ///< read the reachable host with the lowest path latency
                 ///< (fast, may be a stale replica)
  kQuorum,       ///< read `quorum` hosts in parallel, keep the freshest
                 ///< reply (the section 3.3 "quorum ... scheme" variant)
};

struct ClientOptions {
  std::optional<Duration> rpc_timeout;  ///< nullopt: RpcNetwork default
  ReadPolicy read_policy = ReadPolicy::kNearest;
  /// For kQuorum: how many hosts must answer (capped at primary+replicas).
  std::size_t quorum = 2;
  /// Incremental membership reads: read_all keeps a per-(fragment, host)
  /// materialisation and asks each host only for the ops since its last
  /// answer (coll.read_delta), falling back to a full snapshot transparently
  /// (first contact, host switch, truncated server log). Purely a transfer
  /// optimisation: the same host would have answered a full read with the
  /// same membership. kQuorum reads always ship full snapshots (a quorum
  /// compares whole replies from multiple hosts).
  bool delta_reads = true;
  /// Telemetry sink: read_all latency histogram, delta-cache hit/miss
  /// counters, batch-fetch shape. nullptr = the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Placement resolution (src/placement, DESIGN.md decision 12). nullptr —
  /// the default — resolves against the Repository's authoritative map
  /// synchronously: always current, zero extra RPCs, byte-identical to the
  /// pre-placement behaviour. A placement::DirectoryClient here resolves
  /// through a cached dir.lookup view instead, which may lag a migration by
  /// an epoch: a data-path server answering kWrongEpoch (with its current
  /// epoch in the failure detail) triggers one refresh + one retry. Not
  /// owned; must outlive the client.
  DirectorySource* directory = nullptr;
};

/// Counters for the client's membership read path (observability; the E13
/// bench reads these).
struct ClientReadStats {
  std::uint64_t read_alls = 0;             ///< read_all calls
  std::uint64_t fragment_reads_full = 0;   ///< fragments shipped in full
  std::uint64_t fragment_reads_delta = 0;  ///< fragments served as deltas
  std::uint64_t members_shipped = 0;       ///< members in full replies
  std::uint64_t ops_shipped = 0;           ///< ops in delta replies
  Duration read_all_time = Duration::zero();  ///< summed read_all latency
};

class RepositoryClient {
 public:
  RepositoryClient(Repository& repo, NodeId node, ClientOptions options = {})
      : repo_(repo),
        node_(node),
        options_(options),
        metrics_(obs::sink(options.metrics)),
        token_(repo.next_client_token()),
        methods_(repo.net()) {}

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::uint64_t token() const noexcept { return token_; }
  [[nodiscard]] Repository& repo() noexcept { return repo_; }
  [[nodiscard]] const ClientOptions& options() const noexcept {
    return options_;
  }

  // -- membership reads ------------------------------------------------------

  /// Reads one fragment's membership, honouring the read policy.
  Task<Result<msg::SnapshotReply>> read_fragment(CollectionId id,
                                                 std::size_t fragment);

  /// Reads every fragment concurrently and gathers (NOT atomic: mutations
  /// may interleave across fragments) — whole-set latency is the max of the
  /// per-fragment reads, not their sum. With delta_reads on, each fragment
  /// host ships only the ops since its previous answer. Fails if any
  /// fragment is unreadable, reporting the lowest-index failing fragment.
  Task<Result<std::vector<ObjectRef>>> read_all(CollectionId id);

  /// Atomic whole-collection snapshot: freezes every fragment primary (in
  /// canonical order), reads them, and unfreezes. This is the expensive
  /// "one atomic action" that the Figure 4 semantics requires. `on_cut`, if
  /// set, runs at the instant the cut is complete and mutators are still
  /// frozen out.
  Task<Result<std::vector<ObjectRef>>> snapshot_atomic(
      CollectionId id, std::function<void()> on_cut = {});

  /// Total membership count across fragments (loose, like read_all — it IS
  /// a read_all, so it rides the same parallel fan-out and delta cache).
  Task<Result<std::uint64_t>> total_size(CollectionId id);

  // -- membership writes (always at the responsible fragment primary) -------

  Task<Result<bool>> add(CollectionId id, ObjectRef ref);
  Task<Result<bool>> remove(CollectionId id, ObjectRef ref);

  // -- object data -----------------------------------------------------------

  /// Fetches the payload behind `ref` from its home node.
  Task<Result<VersionedValue>> fetch(ObjectRef ref);

  /// Fetches many payloads at once: groups the refs by home node and awaits
  /// one batched store.fetch_batch RPC per node, the nodes in turn in the
  /// order they first appear. Results align with `refs` by index. A node that
  /// cannot be reached fails all of its refs; the call itself never fails.
  /// Callers that want homes overlapped issue one call per home, as the
  /// prefetcher does.
  Task<std::vector<Result<VersionedValue>>> fetch_many(
      std::vector<ObjectRef> refs);

  /// Writes the payload behind `ref`; returns the new version.
  Task<Result<std::uint64_t>> put(ObjectRef ref, std::string data);

  // -- locking (the strong-semantics substrate) ------------------------------

  /// Freezes every fragment primary, in ascending node order (deadlock
  /// avoidance). On partial failure, releases what was taken.
  Task<Result<void>> freeze_all(CollectionId id);

  /// Releases this client's freezes (best effort; lease expiry is the
  /// backstop if a release cannot be delivered).
  Task<void> unfreeze_all(CollectionId id);

  /// Pins every fragment grow-only (section 3.3 ghost-delete variant):
  /// additions proceed, removals are deferred until unpin_all.
  Task<Result<void>> pin_all(CollectionId id);

  /// Releases this client's pins (best effort).
  Task<void> unpin_all(CollectionId id);

  // -- observability ---------------------------------------------------------

  [[nodiscard]] const ClientReadStats& read_stats() const noexcept {
    return read_stats_;
  }
  /// How the most recent read_all was served: fragments shipped in full vs
  /// fragments served as deltas (full + delta == fragment count on success).
  [[nodiscard]] std::uint64_t last_read_full() const noexcept {
    return last_read_full_;
  }
  [[nodiscard]] std::uint64_t last_read_delta() const noexcept {
    return last_read_delta_;
  }

 private:
  /// Client-side materialisation of one fragment's membership as last
  /// answered by one specific host, plus that host's op cursor and version.
  /// Keyed per host: each host's op sequence is monotone, so a cached cursor
  /// can never run ahead of the host it came from — switching hosts (e.g.
  /// kNearest failing over to a replica) simply starts a fresh entry with a
  /// full read, and reads regress across a host switch exactly as full
  /// snapshot reads would.
  struct FragmentCacheEntry {
    MemberList members;
    std::uint64_t seq = 0;
    std::uint64_t version = 0;
    /// Incarnation of the op stream `seq` belongs to; presented with the
    /// cursor so a host that recovered from amnesia (new stream) resyncs us
    /// with a snapshot instead of serving unrelated sequence numbers.
    std::uint64_t incarnation = 0;
  };
  using CacheKey = std::tuple<CollectionId, std::size_t, NodeId>;

  /// Folds one fragment reply into the cache entry for `key`, counting it in
  /// the read stats; returns the entry's materialised members.
  const std::vector<ObjectRef>& absorb_delta(const CacheKey& key,
                                             msg::DeltaReply reply);

  /// Host to read `fragment` from under the current policy; nullopt if no
  /// host is reachable.
  [[nodiscard]] std::optional<NodeId> pick_read_host(
      const FragmentMeta& fragment) const;

  Task<Result<bool>> mutate(CollectionId id, ObjectRef ref,
                            msg::MembershipRequest::Op op);

  /// Current placement of `id`: the attached directory's cached view, or the
  /// Repository's authoritative map when none is attached.
  [[nodiscard]] const CollectionMeta& resolve(CollectionId id) {
    return options_.directory != nullptr ? options_.directory->meta(id)
                                         : repo_.meta(id);
  }

  /// kWrongEpoch self-heal: refreshes the cached directory to the epoch the
  /// rejecting server reported (carried in `failure.detail`) and resolves
  /// true if the caller should retry exactly once. False when no directory
  /// is attached (authoritative resolution cannot be stale).
  Task<bool> heal_wrong_epoch(CollectionId id, const Failure& failure);

  /// One read_all fan-out attempt (the pre-placement read_all body);
  /// read_all wraps it with the wrong-epoch retry.
  Task<Result<std::vector<ObjectRef>>> read_all_attempt(CollectionId id);

  /// Quorum fragment read: scatter to primary+replicas, gather the first
  /// `quorum` successful replies, return the freshest (highest version).
  Task<Result<msg::SnapshotReply>> read_fragment_quorum(
      CollectionId id, const FragmentMeta& fragment);

  template <typename Resp, typename Req>
  Task<Result<Resp>> call(NodeId to, MethodId method, Req request) {
    return repo_.net().call_typed<Resp>(node_, to, method, std::move(request),
                                        options_.rpc_timeout);
  }

  /// The client's RPC vocabulary, interned once at construction so the hot
  /// read path never hashes a method string (DESIGN.md decision 13).
  struct Methods {
    explicit Methods(RpcNetwork& net)
        : snapshot(net.intern("coll.snapshot")),
          read_delta(net.intern("coll.read_delta")),
          membership(net.intern("coll.membership")),
          freeze(net.intern("coll.freeze")),
          pin(net.intern("coll.pin")),
          fetch(net.intern("store.fetch")),
          fetch_batch(net.intern("store.fetch_batch")),
          put(net.intern("store.put")) {}
    MethodId snapshot;
    MethodId read_delta;
    MethodId membership;
    MethodId freeze;
    MethodId pin;
    MethodId fetch;
    MethodId fetch_batch;
    MethodId put;
  };

  Repository& repo_;
  NodeId node_;
  ClientOptions options_;
  obs::MetricsRegistry& metrics_;
  std::uint64_t token_;
  Methods methods_;
  std::map<CacheKey, FragmentCacheEntry> delta_cache_;
  ClientReadStats read_stats_;
  std::uint64_t last_read_full_ = 0;
  std::uint64_t last_read_delta_ = 0;
};

}  // namespace weakset
