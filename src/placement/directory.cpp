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
  obs::CounterId dir_watch_fires{"placement.dir.watch_fires"};
  obs::CounterId dir_watch_notifies{"placement.dir.watch_notifies"};
  obs::CounterId dir_watches_served{"placement.dir.watches_served"};
};
const DirectoryMetrics kMetrics{};

}  // namespace

// ---------------------------------------------------------------------------
// DirectoryService

DirectoryService::DirectoryService(Repository& repo, NodeId node,
                                   DirectoryServiceOptions options)
    : repo_(repo),
      node_(node),
      options_(options),
      metrics_(obs::sink(options.metrics)) {
  repo_.net().register_handler(node_, "dir.lookup",
                               [this](NodeId from, Payload request) {
                                 return handle_lookup(from, std::move(request));
                               });
  repo_.net().register_handler(node_, "dir.watch",
                               [this](NodeId from, Payload request) {
                                 return handle_watch(from, std::move(request));
                               });
  // Epoch-bump accounting lives here (not in Repository) so that runs
  // without a placement subsystem attached never touch the registry.
  repo_.add_directory_observer([this](CollectionId, std::uint64_t) {
    metrics_.add(kMetrics.dir_epoch_bumps);
  });
}

msg::DirView DirectoryService::view_of(CollectionId id) const {
  const CollectionMeta& meta = repo_.meta(id);
  return msg::DirView{meta.epoch(), meta.fragments()};
}

Task<Result<Payload>> DirectoryService::handle_lookup(NodeId /*from*/,
                                                       Payload request) {
  const auto req = payload_cast<msg::DirLookupRequest>(std::move(request));
  metrics_.add(kMetrics.dir_lookups_served);
  co_await repo_.sim().delay(options_.lookup_latency);
  co_return Payload{view_of(req.id())};
}

Task<Result<Payload>> DirectoryService::handle_watch(NodeId /*from*/,
                                                      Payload request) {
  const auto req = payload_cast<msg::DirWatchRequest>(std::move(request));
  metrics_.add(kMetrics.dir_watches_served);
  Simulator& sim = repo_.sim();
  // Hold the poll until the epoch moves past the caller's or the hold
  // expires. The hold bound keeps this coroutine from outliving the run;
  // polling (instead of a wakeup channel) keeps it trivially crash-safe.
  // Any number of epoch bumps inside one poll period — or while the reply
  // below is being composed — coalesce into the single view we answer with.
  const SimTime deadline = sim.now() + options_.watch_hold;
  while (repo_.meta(req.id()).epoch() <= req.known_epoch() &&
         sim.now() < deadline) {
    co_await sim.delay(options_.watch_poll);
  }
  co_await sim.delay(options_.lookup_latency);
  if (repo_.meta(req.id()).epoch() > req.known_epoch()) {
    metrics_.add(kMetrics.dir_watch_fires);
  }
  co_return Payload{view_of(req.id())};
}

// ---------------------------------------------------------------------------
// DirectoryClient

DirectoryClient::DirectoryClient(Repository& repo, NodeId node,
                                 NodeId directory,
                                 DirectoryClientOptions options)
    : repo_(repo),
      node_(node),
      directory_(directory),
      options_(options),
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

bool DirectoryClient::install(CollectionId id, const msg::DirView& view) {
  CollectionMeta& cached = ensure(id);
  if (view.epoch() <= cached.epoch()) return false;
  // Mutate in place: fragment count never changes (migration only rehomes),
  // and references handed out by meta() stay valid across the update.
  const std::vector<FragmentMeta>& fragments = view.fragments();
  for (std::size_t i = 0;
       i < fragments.size() && i < cached.fragment_count(); ++i) {
    cached.fragment(i).set_primary(fragments[i].primary());
  }
  cached.set_epoch(view.epoch());
  return true;
}

Task<bool> DirectoryClient::refresh(CollectionId id,
                                    std::uint64_t current_epoch) {
  if (current_epoch != 0 && ensure(id).epoch() >= current_epoch) {
    // Another healer already pulled this epoch (or the watch loop beat us).
    metrics_.add(kMetrics.dir_refresh_hits);
    co_return true;
  }
  metrics_.add(kMetrics.dir_lookups);
  auto reply = co_await repo_.net().call_typed<msg::DirView>(
      node_, directory_, "dir.lookup", msg::DirLookupRequest{id},
      options_.rpc_timeout);
  if (!reply) co_return false;
  install(id, reply.value());
  co_return current_epoch == 0 || ensure(id).epoch() >= current_epoch;
}

void DirectoryClient::watch(CollectionId id) {
  repo_.sim().spawn(watch_loop(id));
}

Task<void> DirectoryClient::watch_loop(CollectionId id) {
  while (!stopping_) {
    const std::uint64_t known = ensure(id).epoch();
    auto reply = co_await repo_.net().call_typed<msg::DirView>(
        node_, directory_, "dir.watch", msg::DirWatchRequest{id, known},
        options_.watch_timeout);
    if (stopping_) co_return;
    // Timeout or unreachable directory: just re-arm — each iteration is
    // bounded below by the service-side hold, so this never spins hot.
    if (!reply) continue;
    if (install(id, reply.value())) {
      ++notifications_;
      metrics_.add(kMetrics.dir_watch_notifies);
    }
  }
}

}  // namespace weakset::placement
