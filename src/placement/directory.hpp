#pragma once

// Versioned placement directory (DESIGN.md decision 12).
//
// DirectoryService exposes the Repository's authoritative placement map —
// which already carries an epoch per collection — behind one RPC,
// dir.lookup, which resolves one collection's placement as an
// epoch-stamped view.
//
// DirectoryClient implements the store layer's DirectorySource over a
// cached view of those answers. The cache bootstraps synchronously from the
// authoritative map (placement is handed out with the collection handle, as
// a real system would mint it at create time), so attaching a client adds
// zero RPCs until the directory actually changes. After a migration the
// cache may lag by an epoch until a data-path server answers kWrongEpoch,
// which triggers refresh(): a client learns that a fragment moved where it
// meets the move, the way the paper's clients detect failures (section
// 2.1).

#include <cstdint>
#include <unordered_map>

#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "placement/messages.hpp"
#include "store/repository.hpp"

namespace weakset::placement {

struct DirectoryServiceOptions {
  /// Telemetry sink. nullptr = the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The directory server process: registers dir.lookup on `node`.
class DirectoryService {
 public:
  DirectoryService(Repository& repo, NodeId node,
                   DirectoryServiceOptions options = {});
  DirectoryService(const DirectoryService&) = delete;
  DirectoryService& operator=(const DirectoryService&) = delete;

  [[nodiscard]] NodeId node() const noexcept { return node_; }

 private:
  Task<Result<Payload>> handle_lookup(NodeId from, Payload request);

  Repository& repo_;
  NodeId node_;
  obs::MetricsRegistry& metrics_;
};

struct DirectoryClientOptions {
  /// Telemetry sink. nullptr = the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Cached client-side placement view: the DirectorySource a RepositoryClient
/// resolves through when one is attached (ClientOptions::directory).
class DirectoryClient final : public DirectorySource {
 public:
  DirectoryClient(Repository& repo, NodeId node, NodeId directory,
                  DirectoryClientOptions options = {});

  /// Cached placement of `id`; bootstraps from the authoritative map on
  /// first touch (synchronous, no RPC). The reference stays valid across
  /// refreshes: updates mutate the cached entry in place (fragment count
  /// never changes; migration only rehomes).
  const CollectionMeta& meta(CollectionId id) override;

  /// One dir.lookup round trip (at the network's default timeout), unless
  /// the cache already is at or past `current_epoch` (a nonzero hint lets
  /// concurrent healers share one lookup; 0 forces the lookup). True once
  /// the cache is current enough.
  Task<bool> refresh(CollectionId id, std::uint64_t current_epoch) override;

  /// No-op: the client runs no background work. Kept because callers
  /// outside the library stop their clients before draining a run.
  void stop() noexcept {}

  [[nodiscard]] std::uint64_t cached_epoch(CollectionId id);

 private:
  CollectionMeta& ensure(CollectionId id);
  /// Folds an epoch-stamped view into the cache.
  void install(CollectionId id, const msg::DirView& view);

  Repository& repo_;
  NodeId node_;
  NodeId directory_;
  obs::MetricsRegistry& metrics_;
  std::unordered_map<CollectionId, CollectionMeta> cache_;
};

}  // namespace weakset::placement
