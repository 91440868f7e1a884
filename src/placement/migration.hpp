#pragma once

// Live fragment migration (DESIGN.md decision 12).
//
// One MigrationEngine runs on every store node and registers the mig.*
// protocol. A migration of fragment F from node S to node T:
//
//   1. (S) validate: S is the live primary of an unreplicated, unlocked F;
//      T serves and does not host F. Then WAL kMigrationBegin — a begin
//      without a matching done means "never committed": recovery restores F
//      on S as the live single home.
//   2. (S→T) mig.begin allocates a staging area; mig.chunk streams the
//      member snapshot (checkpoint codec image) in slices while S keeps
//      serving reads AND writes; the final chunk seals the staging with the
//      snapshot cursors.
//   3. (S→T) mig.ops ships the ops that landed since the snapshot (a
//      msg::SyncRequest batch sliced from S's op log) until the staging is
//      within kHandoffBacklog ops of S's live tail.
//   4. (S) dual-home handoff: in one atomic transition S opens
//      set_handoff(F, T) and records the cut line (its live tail at that
//      instant) — every op committed past the line is forwarded to T
//      (mig.apply, a one-op msg::SyncRequest) before it is acked, so T
//      never falls behind again, while the bounded backlog below the line
//      keeps shipping via mig.ops. Without the early cut-over a pure
//      catch-up loop never converges under sustained write churn: each
//      round costs a network round-trip during which new ops land. The
//      ground-truth mutation sink fires exactly once, on S.
//   5. (S→T) mig.finish: T promotes the staged fragment to a hosted primary
//      (adopt_primary — same op stream, same incarnation) and persists it
//      with an immediate checkpoint before replying promoted=true.
//   6. (S) commit, in one atomic transition: bump the directory epoch
//      (Repository::set_fragment_primary) and retire the local copy (WAL
//      kMigrationDone tombstone; stale clients now get kWrongEpoch and
//      self-heal).
//
// Any failure before step 6 aborts: clear the handoff, best-effort
// mig.abort to T, leave S the single home. A crash of S mid-migration
// recovers to a consistent single home via the WAL begin/done pair; a crash
// of T wipes its staging (liveness listener) and the next RPC to it aborts
// the attempt.

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "placement/messages.hpp"
#include "store/messages.hpp"
#include "store/repository.hpp"

namespace weakset::placement {

struct MigrationEngineOptions {
  /// Members per mig.chunk slice (the snapshot streams in pieces so the
  /// source keeps interleaving reads between them).
  std::size_t chunk_size = 128;
  /// Telemetry sink. nullptr = the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
};

class MigrationEngine {
 public:
  MigrationEngine(Repository& repo, NodeId node,
                  MigrationEngineOptions options = {});
  ~MigrationEngine();
  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  [[nodiscard]] NodeId node() const noexcept { return node_; }

  /// Source-side protocol, callable directly when the caller is co-located
  /// with the source (tests); remote callers use the mig.execute RPC.
  /// Resolves to the committed directory epoch.
  Task<Result<std::uint64_t>> migrate(CollectionId id, std::size_t fragment,
                                      NodeId target);

 private:
  /// Target-side staging area: the snapshot slices accumulate, the final
  /// chunk installs them with the snapshot cursors into a replica of the
  /// source's fragment, and catch-up / forwarded ops then apply on top
  /// exactly like a replica applies its primary's stream.
  struct Staging {
    explicit Staging(CollectionId id) : state(id) {}
    std::vector<ObjectRef> arriving;  ///< chunk slices, pre-seal
    bool sealed = false;
    /// The staged copy; its incarnation names the source's stream from
    /// mig.begin on.
    CollectionState state;
    /// Out-of-order arrivals (a dual-home forward can overtake a catch-up
    /// batch in flight); drained as soon as the stream is contiguous again.
    std::map<std::uint64_t, CollectionOp> pending;
  };

  Task<Result<std::uint64_t>> run_source(StoreServer* server, CollectionId id,
                                         std::size_t fragment, NodeId target);
  Task<Result<std::uint64_t>> abort_source(StoreServer* server,
                                           CollectionId id, NodeId target,
                                           Failure why);
  /// True while this node is still the live, un-wiped home of `id` —
  /// re-checked after every co_await of the source-side protocol.
  [[nodiscard]] bool still_source(StoreServer* server, CollectionId id,
                                  std::uint64_t incarnation) const;
  /// Applies one op to a sealed staging (idempotent, buffers gaps).
  static void staging_apply(Staging& staging, const CollectionOp& op);

  Task<Result<Payload>> handle_execute(NodeId from, Payload request);
  Task<Result<Payload>> handle_begin(NodeId from, Payload request);
  Task<Result<Payload>> handle_chunk(NodeId from, Payload request);
  Task<Result<Payload>> handle_ops(NodeId from, Payload request);
  Task<Result<Payload>> handle_apply(NodeId from, Payload request);
  /// mig.ops and mig.apply: applies the ops to the sealed staging of their
  /// fragment. A forward (mig.apply) that finds the staging already
  /// promoted applies to the adopted primary instead.
  Task<Result<Payload>> stage_ops(weakset::msg::SyncRequest req,
                                  bool forward);
  Task<Result<Payload>> handle_finish(NodeId from, Payload request);
  Task<Result<Payload>> handle_abort(NodeId from, Payload request);

  /// Protocol messages use the network's default timeout.
  template <typename Resp, typename Req>
  Task<Result<Resp>> call(NodeId to, std::string method, Req request) {
    return repo_.net().call_typed<Resp>(node_, to, std::move(method),
                                        std::move(request));
  }

  Repository& repo_;
  NodeId node_;
  MigrationEngineOptions options_;
  obs::MetricsRegistry& metrics_;
  std::unordered_map<CollectionId, std::unique_ptr<Staging>> staging_;
  std::unordered_set<CollectionId> outbound_;  ///< source-side, in progress
  std::size_t liveness_token_ = 0;
};

}  // namespace weakset::placement
