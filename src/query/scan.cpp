#include "query/scan.hpp"

#include "fs/file.hpp"

namespace weakset {
namespace {

/// The scan cost model both services charge.
constexpr Duration kBaseLatency = Duration::millis(1);
/// Per object swept: an index-free scan, or an index (re)build.
constexpr Duration kPerObject = Duration::micros(20);
/// Per index candidate: posting fetch plus predicate verification.
constexpr Duration kPerCandidate = Duration::micros(5);

}  // namespace

void QueryService::install(NodeId node) {
  StoreServer* server = repo_.server_at(node);
  assert(server != nullptr && "no store server on that node");
  RpcNetwork& net = repo_.net();
  net.register_handler(
      node, "query.scan",
      [server, node, &net](NodeId, Payload request) -> Task<Result<Payload>> {
        const auto req = payload_cast<msg::ScanRequest>(std::move(request));
        const ObjectStore& store = server->objects();
        co_await net.sim().delay(
            kBaseLatency +
            kPerObject * static_cast<std::int64_t>(store.size()));
        std::vector<ObjectRef> matches;
        store.for_each([&](ObjectId id, const VersionedValue& value) {
          if (req.predicate().matches(FileInfo::decode(value.data()))) {
            matches.emplace_back(id, node);
          }
        });
        // Unordered-map iteration order is nondeterministic across libc++/
        // libstdc++; sort for reproducible traces.
        std::sort(matches.begin(), matches.end());
        co_return Payload{std::move(matches)};
      });
}

void IndexedQueryService::install(NodeId node) {
  StoreServer* server = repo_.server_at(node);
  assert(server != nullptr && "no store server on that node");
  auto [it, inserted] = indexes_.emplace(node, std::make_unique<NodeIndex>());
  assert(inserted && "indexed scan already installed on that node");
  NodeIndex* node_index = it->second.get();
  RpcNetwork& net = repo_.net();
  net.register_handler(
      node, "query.scan",
      [this, server, node, node_index,
       &net](NodeId, Payload request) -> Task<Result<Payload>> {
        const auto req = payload_cast<msg::ScanRequest>(std::move(request));
        const ObjectStore& store = server->objects();
        co_await net.sim().delay(kBaseLatency);

        // Lazy (re)build when the store changed since the last build.
        if (!node_index->built ||
            node_index->built_at_version != store.store_version()) {
          co_await net.sim().delay(
              kPerObject * static_cast<std::int64_t>(store.size()));
          node_index->index.clear();
          store.for_each([&](ObjectId id, const VersionedValue& value) {
            node_index->index.index_object(id,
                                           FileInfo::decode(value.data()));
          });
          node_index->built = true;
          node_index->built_at_version = store.store_version();
          ++rebuilds_;
        }

        const PredicateSpec& predicate = req.predicate();
        std::vector<ObjectRef> matches;
        if (predicate.kind() == PredicateSpec::Kind::kContains &&
            InvertedIndex::is_indexable(predicate.argument())) {
          ++index_hits_;
          const std::vector<ObjectId> candidates =
              node_index->index.lookup(predicate.argument());
          co_await net.sim().delay(
              kPerCandidate * static_cast<std::int64_t>(candidates.size()));
          for (const ObjectId id : candidates) {
            const auto value = store.get(id);
            if (value &&
                predicate.matches(FileInfo::decode(value->data()))) {
              matches.emplace_back(id, node);
            }
          }
        } else {
          ++sweeps_;
          co_await net.sim().delay(
              kPerObject * static_cast<std::int64_t>(store.size()));
          store.for_each([&](ObjectId id, const VersionedValue& value) {
            if (predicate.matches(FileInfo::decode(value.data()))) {
              matches.emplace_back(id, node);
            }
          });
        }
        std::sort(matches.begin(), matches.end());
        co_return Payload{std::move(matches)};
      });
}

}  // namespace weakset
