#pragma once

// QueryService: the server-side scan endpoint ("query.scan").
//
// Each installed node scans its local object store against a shipped
// PredicateSpec and returns the matching refs. Scan cost is modelled as a
// base latency plus a per-object charge (index-free sweep, like grepping a
// WAIS archive); the indexed variant below charges the same two, plus a
// per-candidate charge for what its index answers.

#include <memory>
#include <unordered_map>
#include <vector>

#include "query/index.hpp"
#include "query/predicate.hpp"
#include "store/repository.hpp"

namespace weakset {
namespace msg {

/// query.scan request. Reply: std::vector<ObjectRef>.
class ScanRequest {
 public:
  explicit ScanRequest(PredicateSpec predicate)
      : predicate_(std::move(predicate)) {}
  [[nodiscard]] const PredicateSpec& predicate() const noexcept {
    return predicate_;
  }

 private:
  PredicateSpec predicate_;
};

}  // namespace msg

class QueryService {
 public:
  explicit QueryService(Repository& repo) : repo_(repo) {}
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers the scan endpoint on `node` (which must run a store server).
  void install(NodeId node);

  /// Registers the scan endpoint on every store server.
  void install_all() {
    for (const NodeId node : repo_.server_nodes()) install(node);
  }

 private:
  Repository& repo_;
};

/// The indexed variant of the scan endpoint: maintains a per-node inverted
/// index (rebuilt lazily when the store changed) and answers single-token
/// CONTAINS predicates from it — candidates are verified against the full
/// predicate, so results stay exact. Other predicates fall back to the
/// sweep. The WAIS-style archive substrate.
class IndexedQueryService {
 public:
  explicit IndexedQueryService(Repository& repo) : repo_(repo) {}
  IndexedQueryService(const IndexedQueryService&) = delete;
  IndexedQueryService& operator=(const IndexedQueryService&) = delete;

  void install(NodeId node);
  void install_all() {
    for (const NodeId node : repo_.server_nodes()) install(node);
  }

  /// How often scans were answered from the index vs by sweeping.
  [[nodiscard]] std::uint64_t index_hits() const noexcept {
    return index_hits_;
  }
  [[nodiscard]] std::uint64_t sweeps() const noexcept { return sweeps_; }
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }

 private:
  struct NodeIndex {
    InvertedIndex index;
    std::uint64_t built_at_version = 0;
    bool built = false;
  };

  Repository& repo_;
  std::unordered_map<NodeId, std::unique_ptr<NodeIndex>> indexes_;
  std::uint64_t index_hits_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace weakset
