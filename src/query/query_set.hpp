#pragma once

// QuerySetView: a weak set defined *by a query* — membership is whatever the
// scan service returns right now from the target nodes.
//
// This realises the paper's core examples: "display the .face files of all
// people listed on Carnegie Mellon's home page", "a list of papers by a
// particular author", "the on-line menus of all Chinese restaurants". The
// non-serializable effects the paper predicts fall out directly:
//   - "Two people running the same query at the same time may obtain
//      different sets of elements."
//   - "Running the same query twice in a row may return different sets."
//
// Two read modes:
//   kRequireAll   every target node must answer (pessimistic reads; a
//                 partitioned archive fails the query)
//   kBestEffort   unreachable nodes are skipped; membership is what the
//                 reachable part of the federation can see right now

#include <vector>

#include "core/set_view.hpp"
#include "query/scan.hpp"
#include "store/client.hpp"
#include "store/reachable.hpp"

namespace weakset {

enum class QueryMode { kRequireAll, kBestEffort };

class QuerySetView final : public SetView {
 public:
  QuerySetView(RepositoryClient& client, PredicateSpec predicate,
               std::vector<NodeId> targets,
               QueryMode mode = QueryMode::kBestEffort)
      : client_(client),
        predicate_(std::move(predicate)),
        targets_(std::move(targets)),
        mode_(mode) {}

  Task<Result<std::vector<ObjectRef>>> read_members() override;

  /// Queries have no freeze substrate, so the "snapshot" is a require-all
  /// read: consistent only in the absence of concurrent mutation. Documented
  /// approximation (a real system would need repository-wide locks — the
  /// very cost the paper argues against).
  Task<Result<std::vector<ObjectRef>>> snapshot_atomic(
      std::function<void()> on_cut) override;

  Task<Result<void>> freeze() override {
    co_return Failure{FailureKind::kNotFound,
                      "query sets cannot freeze the repository"};
  }
  Task<void> unfreeze() override { co_return; }

  Task<Result<void>> pin_grow_only() override {
    co_return Failure{FailureKind::kNotFound,
                      "query sets cannot pin the repository"};
  }
  Task<void> unpin_grow_only() override { co_return; }

  [[nodiscard]] bool is_reachable(ObjectRef ref) const override {
    return weakset::is_reachable(client_.repo().topology(), client_.node(),
                                 ref);
  }
  [[nodiscard]] std::optional<Duration> distance(
      ObjectRef ref) const override {
    return client_.repo().topology().path_latency(client_.node(), ref.home());
  }
  Task<Result<VersionedValue>> fetch(ObjectRef ref) override {
    return client_.fetch(ref);
  }
  Task<std::vector<Result<VersionedValue>>> fetch_many(
      std::vector<ObjectRef> refs) override {
    return client_.fetch_many(std::move(refs));
  }
  [[nodiscard]] Simulator& sim() override { return client_.repo().sim(); }

  /// Nodes skipped (unreachable / failed) during the last best-effort read.
  [[nodiscard]] std::size_t last_skipped() const noexcept {
    return last_skipped_;
  }

 private:
  Task<Result<std::vector<ObjectRef>>> read(QueryMode mode);

  RepositoryClient& client_;
  PredicateSpec predicate_;
  std::vector<NodeId> targets_;
  QueryMode mode_;
  std::size_t last_skipped_ = 0;
};

}  // namespace weakset
