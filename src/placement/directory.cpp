#include "placement/directory.hpp"

#include <utility>

namespace weakset::placement {
namespace {

/// This module's telemetry names, interned once per process.
struct DirectoryMetrics {
  obs::CounterId dir_epoch_bumps{"placement.dir.epoch_bumps"};
  obs::CounterId dir_lookups{"placement.dir.lookups"};
  obs::CounterId dir_lookups_served{"placement.dir.lookups_served"};
  obs::CounterId dir_refresh_hits{"placement.dir.refresh_hits"};
};
const DirectoryMetrics kMetrics{};

/// Cost of composing one placement answer (map access + marshalling).
constexpr Duration kLookupLatency = Duration::micros(100);

}  // namespace

// ---------------------------------------------------------------------------
// DirectoryService

DirectoryService::DirectoryService(Repository& repo, NodeId node,
                                   DirectoryServiceOptions options)
    : repo_(repo), node_(node), metrics_(obs::sink(options.metrics)) {
  repo_.net().register_handler(node_, "dir.lookup",
                               [this](NodeId from, Payload request) {
                                 return handle_lookup(from, std::move(request));
                               });
  // Epoch-bump accounting lives here (not in Repository) so that runs
  // without a placement subsystem attached never touch the registry.
  repo_.add_directory_observer([this](CollectionId, std::uint64_t) {
    metrics_.add(kMetrics.dir_epoch_bumps);
  });
}

Task<Result<Payload>> DirectoryService::handle_lookup(NodeId /*from*/,
                                                       Payload request) {
  const auto req = payload_cast<msg::DirLookupRequest>(std::move(request));
  metrics_.add(kMetrics.dir_lookups_served);
  co_await repo_.sim().delay(kLookupLatency);
  const CollectionMeta& meta = repo_.meta(req.id());
  co_return Payload{msg::DirView{meta.epoch(), meta.fragments()}};
}

// ---------------------------------------------------------------------------
// DirectoryClient

DirectoryClient::DirectoryClient(Repository& repo, NodeId node,
                                 NodeId directory,
                                 DirectoryClientOptions options)
    : repo_(repo),
      node_(node),
      directory_(directory),
      metrics_(obs::sink(options.metrics)) {}

CollectionMeta& DirectoryClient::ensure(CollectionId id) {
  const auto it = cache_.find(id);
  if (it != cache_.end()) return it->second;
  // First touch: copy the authoritative placement, as handed out with the
  // collection handle at create time. No RPC — attaching a directory client
  // costs nothing until the placement actually changes.
  return cache_.emplace(id, repo_.meta(id)).first->second;
}

const CollectionMeta& DirectoryClient::meta(CollectionId id) {
  return ensure(id);
}

std::uint64_t DirectoryClient::cached_epoch(CollectionId id) {
  return ensure(id).epoch();
}

void DirectoryClient::install(CollectionId id, const msg::DirView& view) {
  CollectionMeta& cached = ensure(id);
  if (view.epoch() <= cached.epoch()) return;
  // Mutate in place: fragment count never changes (migration only rehomes),
  // and references handed out by meta() stay valid across the update.
  const std::vector<FragmentMeta>& fragments = view.fragments();
  for (std::size_t i = 0;
       i < fragments.size() && i < cached.fragment_count(); ++i) {
    cached.fragment(i).set_primary(fragments[i].primary());
  }
  cached.set_epoch(view.epoch());
}

Task<bool> DirectoryClient::refresh(CollectionId id,
                                    std::uint64_t current_epoch) {
  if (current_epoch != 0 && ensure(id).epoch() >= current_epoch) {
    // Another healer already pulled this epoch.
    metrics_.add(kMetrics.dir_refresh_hits);
    co_return true;
  }
  metrics_.add(kMetrics.dir_lookups);
  auto reply = co_await repo_.net().call_typed<msg::DirView>(
      node_, directory_, "dir.lookup", msg::DirLookupRequest{id});
  if (!reply) co_return false;
  install(id, reply.value());
  co_return current_epoch == 0 || ensure(id).epoch() >= current_epoch;
}

}  // namespace weakset::placement
