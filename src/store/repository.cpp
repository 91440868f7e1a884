#include "store/repository.hpp"

namespace weakset {

Repository::Repository(RpcNetwork& net) : net_(net) {
  liveness_token_ = net_.topology().add_liveness_listener(
      {.on_crash =
           [this](NodeId node, Topology::CrashKind kind) {
             if (StoreServer* server = server_at(node)) server->on_crash(kind);
           },
       .on_restart =
           [this](NodeId node, Topology::CrashKind kind) {
             if (StoreServer* server = server_at(node)) {
               server->on_restart(kind);
             }
           }});
}

Repository::~Repository() {
  net_.topology().remove_liveness_listener(liveness_token_);
}

StoreServer& Repository::add_server(NodeId node, StoreServerOptions options) {
  auto [it, inserted] = servers_.emplace(
      node, std::make_unique<StoreServer>(net_, node, options));
  assert(inserted && "server already exists on node");
  it->second->set_mutation_sink(this);
  server_nodes_.push_back(node);
  for (const auto& [coll, tenant] : tenant_tags_) {
    it->second->set_tenant(coll, tenant);
  }
  return *it->second;
}

void Repository::tag_tenant(CollectionId id, std::uint64_t tenant) {
  tenant_tags_[id] = tenant;
  for (auto& [node, server] : servers_) server->set_tenant(id, tenant);
}

StoreServer* Repository::server_at(NodeId node) {
  const auto it = servers_.find(node);
  return it == servers_.end() ? nullptr : it->second.get();
}

ObjectRef Repository::create_object(NodeId home, std::string data) {
  StoreServer* server = server_at(home);
  assert(server != nullptr && "no store server on that node");
  const ObjectId id = object_ids_.next();
  server->objects().put(id, std::move(data));
  return ObjectRef{id, home};
}

CollectionId Repository::create_collection(
    const std::vector<NodeId>& primaries, ReplicationMode mode) {
  assert(!primaries.empty());
  const CollectionId id = collection_ids_.next();
  std::vector<FragmentMeta> fragments;
  fragments.reserve(primaries.size());
  for (const NodeId node : primaries) {
    StoreServer* server = server_at(node);
    assert(server != nullptr && "no store server on that node");
    if (mode == ReplicationMode::kOrSet) {
      server->host_orset(id);
    } else {
      server->host_primary(id);
    }
    fragments.emplace_back(node);
  }
  metas_.emplace(id, CollectionMeta{id, std::move(fragments), mode});
  return id;
}

void Repository::add_replica(CollectionId id, std::size_t fragment,
                             NodeId node) {
  auto it = metas_.find(id);
  assert(it != metas_.end());
  FragmentMeta& frag = it->second.fragment(fragment);
  StoreServer* server = server_at(node);
  assert(server != nullptr && "no store server on that node");
  if (it->second.mode() == ReplicationMode::kOrSet) {
    // An equal multi-master peer: host the OR-Set and wire the all-pairs
    // anti-entropy links in both directions.
    server->host_orset(id);
    std::vector<NodeId> hosts{frag.primary()};
    hosts.insert(hosts.end(), frag.replicas().begin(), frag.replicas().end());
    for (const NodeId host : hosts) {
      StoreServer* peer = server_at(host);
      assert(peer != nullptr);
      peer->add_orset_peer(id, node);
      server->add_orset_peer(id, host);
    }
    frag.add_replica(node);
    return;
  }
  server->host_replica(id, frag.primary());
  frag.add_replica(node);
}

const CollectionMeta& Repository::meta(CollectionId id) const {
  const auto it = metas_.find(id);
  assert(it != metas_.end());
  return it->second;
}

std::uint64_t Repository::set_fragment_primary(CollectionId id,
                                               std::size_t fragment,
                                               NodeId node) {
  auto it = metas_.find(id);
  assert(it != metas_.end());
  CollectionMeta& meta = it->second;
  meta.fragment(fragment).set_primary(node);
  meta.set_epoch(meta.epoch() + 1);
  const std::uint64_t epoch = meta.epoch();
  for (const auto& observer : directory_observers_) observer(id, epoch);
  return epoch;
}

void Repository::seed_member(CollectionId id, ObjectRef ref) {
  const CollectionMeta& m = meta(id);
  const NodeId primary = m.fragments()[m.fragment_of(ref)].primary();
  StoreServer* server = server_at(primary);
  assert(server != nullptr);
  if (m.mode() == ReplicationMode::kOrSet) {
    if (server->seed_orset_member(id, ref)) {
      on_mutation(id, CollectionOp::Kind::kAdd, ref);
    }
    return;
  }
  CollectionState* state = server->collection(id);
  assert(state != nullptr);
  if (state->add(ref)) on_mutation(id, CollectionOp::Kind::kAdd, ref);
}

void Repository::stop_all_daemons() {
  for (auto& [node, server] : servers_) server->stop_daemons();
}

}  // namespace weakset
