#include "placement/migration.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "store/messages.hpp"
#include "wal/wal.hpp"

namespace weakset::placement {
namespace {

/// This module's telemetry names, interned once per process.
struct MigrationMetrics {
  obs::CounterId catchup_rounds{"placement.catchup_rounds"};
  obs::CounterId chunks_streamed{"placement.chunks_streamed"};
  obs::CounterId migrations_aborted{"placement.migrations_aborted"};
  obs::CounterId migrations_committed{"placement.migrations_committed"};
  obs::CounterId migrations_started{"placement.migrations_started"};
  obs::CounterId orphans_retired{"placement.orphans_retired"};
  obs::CounterId stagings_aborted{"placement.stagings_aborted"};
  obs::CounterId stagings_opened{"placement.stagings_opened"};
  obs::HistogramId migration_bytes{"placement.migration_bytes"};
  obs::HistogramId migration_time{"placement.migration_time"};
};
const MigrationMetrics kMetrics{};

/// Catch-up cut line: once the staging trails the source's live tail by at
/// most this many ops, the dual-home handoff opens and the remaining backlog
/// ships while new writes forward. This bounds migration time under
/// sustained churn (a strict converge-then-handoff loop only finishes when
/// the writers pause).
constexpr std::uint64_t kHandoffBacklog = 32;

}  // namespace

namespace smsg = weakset::msg;  // store-layer payloads (source-stream ops)

MigrationEngine::MigrationEngine(Repository& repo, NodeId node,
                                 MigrationEngineOptions options)
    : repo_(repo),
      node_(node),
      options_(options),
      metrics_(obs::sink(options.metrics)) {
  const auto bind = [this](auto method) {
    return [this, method](NodeId from, Payload request) {
      return (this->*method)(from, std::move(request));
    };
  };
  RpcNetwork& net = repo_.net();
  net.register_handler(node_, "mig.execute",
                       bind(&MigrationEngine::handle_execute));
  net.register_handler(node_, "mig.begin",
                       bind(&MigrationEngine::handle_begin));
  net.register_handler(node_, "mig.chunk",
                       bind(&MigrationEngine::handle_chunk));
  net.register_handler(node_, "mig.ops", bind(&MigrationEngine::handle_ops));
  net.register_handler(node_, "mig.apply",
                       bind(&MigrationEngine::handle_apply));
  net.register_handler(node_, "mig.finish",
                       bind(&MigrationEngine::handle_finish));
  net.register_handler(node_, "mig.abort",
                       bind(&MigrationEngine::handle_abort));
  // Staging is volatile node state: an amnesia crash of this node must lose
  // it, exactly like the store's in-memory fragments.
  liveness_token_ = repo_.topology().add_liveness_listener(
      {.on_crash =
           [this](NodeId crashed, Topology::CrashKind kind) {
             if (crashed == node_ && kind == Topology::CrashKind::kAmnesia) {
               staging_.clear();
             }
           },
       .on_restart = {}});
}

MigrationEngine::~MigrationEngine() {
  repo_.topology().remove_liveness_listener(liveness_token_);
}

// ---------------------------------------------------------------------------
// Source side

bool MigrationEngine::still_source(StoreServer* server, CollectionId id,
                                   std::uint64_t incarnation) const {
  if (!server->serving() || !server->hosts_primary(id)) return false;
  const CollectionState* state = server->collection(id);
  // An amnesia crash + recovery bumps the incarnation: the fragment we were
  // streaming no longer exists as the stream we snapshotted.
  return state != nullptr && state->incarnation() == incarnation;
}

Task<Result<std::uint64_t>> MigrationEngine::migrate(CollectionId id,
                                                     std::size_t fragment,
                                                     NodeId target) {
  StoreServer* server = repo_.server_at(node_);
  if (server == nullptr || !server->serving()) {
    co_return Failure{FailureKind::kUnreachable, "no serving store here"};
  }
  if (outbound_.contains(id)) {
    co_return Failure{FailureKind::kExhausted, "migration already in flight"};
  }
  const CollectionMeta& meta = repo_.meta(id);
  if (fragment >= meta.fragment_count() ||
      meta.fragments()[fragment].primary() != node_) {
    co_return Failure{FailureKind::kNotFound, "not this fragment's primary"};
  }
  if (!meta.fragments()[fragment].replicas().empty()) {
    // Replica placement (and their pull loops) does not travel with the
    // primary; replicated fragments stay put.
    co_return Failure{FailureKind::kExhausted, "fragment is replicated"};
  }
  if (target == node_ || repo_.server_at(target) == nullptr) {
    co_return Failure{FailureKind::kNotFound, "target runs no store server"};
  }
  if (!server->hosts_primary(id) || server->migration_blocked(id)) {
    co_return Failure{FailureKind::kExhausted, "fragment busy"};
  }
  StoreServer* target_server = repo_.server_at(target);
  if (target_server->collection(id) != nullptr &&
      !target_server->is_retired(id)) {
    co_return Failure{FailureKind::kExhausted, "target already hosts it"};
  }

  outbound_.insert(id);
  metrics_.add(kMetrics.migrations_started);
  const SimTime started = repo_.sim().now();
  auto result = co_await run_source(server, id, fragment, target);
  outbound_.erase(id);
  if (result) {
    metrics_.add(kMetrics.migrations_committed);
    metrics_.record(kMetrics.migration_time, repo_.sim().now() - started);
  } else {
    metrics_.add(kMetrics.migrations_aborted);
  }
  co_return result;
}

Task<Result<std::uint64_t>> MigrationEngine::abort_source(StoreServer* server,
                                                          CollectionId id,
                                                          NodeId target,
                                                          Failure why) {
  if (server->serving()) server->clear_handoff(id);
  // Best effort; the target also self-cleans via its crash listener or the
  // next mig.begin.
  (void)co_await call<bool>(target, "mig.abort", msg::MigAbortRequest{id});
  co_return why;
}

Task<Result<std::uint64_t>> MigrationEngine::run_source(StoreServer* server,
                                                        CollectionId id,
                                                        std::size_t fragment,
                                                        NodeId target) {
  Simulator& sim = repo_.sim();
  const Duration entry_cost = server->options().membership_entry_cost;
  const std::uint64_t incarnation = server->collection(id)->incarnation();

  // 1. Durable intent. A begin without a done restores this node as the
  //    live single home on recovery.
  server->log_migration_begin(id, target);
  wal::CollectionImage image = server->export_image(id);
  const auto image_bytes = static_cast<std::int64_t>(
      wal::encode(wal::CheckpointImage{{image}}).size());
  metrics_.record_value(kMetrics.migration_bytes, image_bytes);

  // 2. Staging area on the target.
  auto begin = co_await call<bool>(
      target, "mig.begin", msg::MigBeginRequest{id, node_, image.incarnation});
  if (!still_source(server, id, incarnation)) {
    co_return Failure{FailureKind::kNodeCrashed, "source crashed"};
  }
  if (!begin) {
    co_return co_await abort_source(server, id, target, begin.error());
  }

  // 3. Stream the member snapshot in slices; the source keeps serving both
  //    reads and writes between them (writes are caught up below).
  const std::size_t chunk = std::max<std::size_t>(std::size_t{1},
                                                  options_.chunk_size);
  std::size_t offset = 0;
  bool final_sent = false;
  while (!final_sent) {
    const std::size_t n = std::min(chunk, image.members.size() - offset);
    std::vector<ObjectRef> slice;
    slice.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [object, home] = image.members[offset + i];
      slice.emplace_back(ObjectId{object}, NodeId{home});
    }
    offset += n;
    final_sent = offset >= image.members.size();
    // Serialisation cost, same per-entry model as membership replies.
    co_await sim.delay(entry_cost * static_cast<std::int64_t>(n));
    if (!still_source(server, id, incarnation)) {
      co_return Failure{FailureKind::kNodeCrashed, "source crashed"};
    }
    auto shipped = co_await call<msg::MigChunkReply>(
        target, "mig.chunk",
        msg::MigChunkRequest{id, std::move(slice), final_sent, image.version,
                             image.last_seq, image.incarnation});
    if (!still_source(server, id, incarnation)) {
      co_return Failure{FailureKind::kNodeCrashed, "source crashed"};
    }
    if (!shipped) {
      co_return co_await abort_source(server, id, target, shipped.error());
    }
    metrics_.add(kMetrics.chunks_streamed);
  }

  // 4. Catch up the ops that landed while the snapshot streamed, cutting
  //    over to the dual-home handoff once the gap is small. The cut-over
  //    decision, set_handoff, and the cut-line capture share one atomic
  //    transition, so no op can slip between "below the line, will ship
  //    via mig.ops" and "past the line, forwarded before ack". Ops past
  //    the line that mig.ops re-ships anyway are dropped by the staging's
  //    seq check; a forward that overtakes a batch buffers in its pending
  //    map. Without the early cut-over the loop only converges when the
  //    writers pause: each round costs a round-trip during which new ops
  //    land.
  std::uint64_t cursor = image.last_seq;
  std::optional<std::uint64_t> handoff_seq;
  for (;;) {
    const CollectionState* state = server->collection(id);
    if (!handoff_seq && state->last_seq() - cursor <= kHandoffBacklog) {
      server->set_handoff(id, target);
      handoff_seq = state->last_seq();
    }
    if (handoff_seq && cursor >= *handoff_seq) break;
    if (!state->log().covers(cursor)) {
      // The fragment is mutating faster than its retained log window; a
      // bigger membership_log_cap (or a quieter moment) is needed.
      co_return co_await abort_source(
          server, id, target,
          Failure{FailureKind::kExhausted, "op log truncated mid-migration"});
    }
    std::vector<CollectionOp> ops = state->log().since(cursor);
    const std::uint64_t shipped_to = state->last_seq();
    co_await sim.delay(entry_cost * static_cast<std::int64_t>(ops.size()));
    if (!still_source(server, id, incarnation)) {
      co_return Failure{FailureKind::kNodeCrashed, "source crashed"};
    }
    auto sync = co_await call<smsg::HandoffApplyReply>(
        target, "mig.ops",
        smsg::SyncRequest{id, std::move(ops), image.incarnation});
    if (!still_source(server, id, incarnation)) {
      co_return Failure{FailureKind::kNodeCrashed, "source crashed"};
    }
    if (!sync) {
      co_return co_await abort_source(server, id, target, sync.error());
    }
    if (sync.value().applied_seq() < shipped_to) {
      co_return co_await abort_source(
          server, id, target,
          Failure{FailureKind::kExhausted, "catch-up made no progress"});
    }
    cursor = sync.value().applied_seq();
    metrics_.add(kMetrics.catchup_rounds);
  }

  // 5. Commit on the target: promote + checkpoint before it answers. The
  //    target must hold everything up to the cut line; ops past it were
  //    forwarded (and acked to it) before their client acks, so a promote
  //    at the line never loses an acknowledged op.
  const std::uint64_t expected = *handoff_seq;
  auto finish = co_await call<msg::MigFinishReply>(
      target, "mig.finish", msg::MigFinishRequest{id, expected});
  if (!still_source(server, id, incarnation)) {
    co_return Failure{FailureKind::kNodeCrashed, "source crashed"};
  }
  if (!finish) {
    co_return co_await abort_source(server, id, target, finish.error());
  }
  if (!finish.value().promoted()) {
    co_return co_await abort_source(
        server, id, target,
        Failure{FailureKind::kExhausted, "target could not promote"});
  }

  // 6. Commit on the source — one atomic transition: the directory bump
  //    and the tombstone happen before any other event can interleave, so
  //    there is never an instant with two live homes visible through the
  //    directory.
  const std::uint64_t epoch = repo_.set_fragment_primary(id, fragment, target);
  server->retire_collection(id, target, epoch);
  co_return epoch;
}

// ---------------------------------------------------------------------------
// Target side

void MigrationEngine::staging_apply(Staging& staging, const CollectionOp& op) {
  CollectionState& state = staging.state;
  if (op.seq() > state.applied_seq() + 1) {
    // A dual-home forward overtook a catch-up batch in flight; hold it
    // until the stream is contiguous again.
    staging.pending.emplace(op.seq(), op);
    return;
  }
  state.apply(op);  // ignores a duplicate delivery
  // Drain any buffered successors that are now contiguous.
  auto it = staging.pending.begin();
  while (it != staging.pending.end() && it->first == state.applied_seq() + 1) {
    state.apply(it->second);
    it = staging.pending.erase(it);
  }
}

Task<Result<Payload>> MigrationEngine::handle_execute(NodeId /*from*/,
                                                       Payload request) {
  const auto req = payload_cast<msg::MigrateRequest>(std::move(request));
  auto result = co_await migrate(req.collection(), req.fragment(),
                                 req.target());
  if (!result) co_return result.error();
  co_return Payload{msg::MigrateReply{result.value()}};
}

Task<Result<Payload>> MigrationEngine::handle_begin(NodeId /*from*/,
                                                     Payload request) {
  const auto req = payload_cast<msg::MigBeginRequest>(std::move(request));
  StoreServer* server = repo_.server_at(node_);
  if (server == nullptr || !server->serving()) {
    co_return Failure{FailureKind::kUnreachable, "node recovering"};
  }
  co_await repo_.sim().delay(StoreServer::kMembershipLatency);
  server = repo_.server_at(node_);
  if (server == nullptr || !server->serving()) {
    co_return Failure{FailureKind::kUnreachable, "node recovering"};
  }
  if (server->collection(req.id()) != nullptr &&
      !server->is_retired(req.id())) {
    co_return Failure{FailureKind::kExhausted, "already hosting fragment"};
  }
  auto staging = std::make_unique<Staging>(req.id());
  staging->state.set_log_cap(server->options().membership_log_cap);
  staging->state.set_incarnation(req.incarnation());
  staging_.insert_or_assign(req.id(), std::move(staging));
  metrics_.add(kMetrics.stagings_opened);
  co_return Payload{true};
}

Task<Result<Payload>> MigrationEngine::handle_chunk(NodeId /*from*/,
                                                     Payload request) {
  const auto req = payload_cast<msg::MigChunkRequest>(std::move(request));
  StoreServer* server = repo_.server_at(node_);
  if (server == nullptr || !server->serving()) {
    co_return Failure{FailureKind::kUnreachable, "node recovering"};
  }
  co_await repo_.sim().delay(StoreServer::kMembershipLatency);
  const auto it = staging_.find(req.id());  // re-resolve: crash wipes staging
  if (it == staging_.end() || it->second->sealed) {
    co_return Failure{FailureKind::kNotFound, "no open staging"};
  }
  Staging& staging = *it->second;
  staging.arriving.insert(staging.arriving.end(), req.members().begin(),
                          req.members().end());
  if (req.final_chunk()) {
    // Seal: install the snapshot at its cursors; from here the staging is a
    // replica applying the source's op stream.
    staging.state.install(std::move(staging.arriving), req.version(),
                          req.last_seq());
    staging.state.set_incarnation(req.incarnation());
    staging.arriving.clear();
    staging.sealed = true;
  }
  co_return Payload{msg::MigChunkReply{staging.state.size() +
                                        staging.arriving.size()}};
}

Task<Result<Payload>> MigrationEngine::handle_ops(NodeId /*from*/,
                                                   Payload request) {
  return stage_ops(payload_cast<smsg::SyncRequest>(std::move(request)),
                   /*forward=*/false);
}

Task<Result<Payload>> MigrationEngine::handle_apply(NodeId /*from*/,
                                                     Payload request) {
  return stage_ops(payload_cast<smsg::SyncRequest>(std::move(request)),
                   /*forward=*/true);
}

Task<Result<Payload>> MigrationEngine::stage_ops(smsg::SyncRequest req,
                                                 bool forward) {
  StoreServer* server = repo_.server_at(node_);
  if (server == nullptr || !server->serving()) {
    co_return Failure{FailureKind::kUnreachable, "node recovering"};
  }
  co_await repo_.sim().delay(StoreServer::kMembershipLatency);
  const auto it = staging_.find(req.id());
  if (it != staging_.end() && it->second->sealed) {
    Staging& staging = *it->second;
    if (req.incarnation() != staging.state.incarnation()) {
      co_return Failure{FailureKind::kExhausted,
                        "staging incarnation mismatch"};
    }
    for (const CollectionOp& op : req.ops()) staging_apply(staging, op);
    co_return Payload{smsg::HandoffApplyReply{staging.state.applied_seq()}};
  }
  if (!forward) co_return Failure{FailureKind::kNotFound, "no sealed staging"};
  // Post-promote window: the staging was consumed by mig.finish but the
  // source has not retired yet — apply straight to the adopted primary
  // (fires its WAL observer, never the ground-truth mutation sink; the
  // source announced the op already).
  server = repo_.server_at(node_);
  CollectionState* state =
      server != nullptr ? server->collection(req.id()) : nullptr;
  const CollectionOp& op = req.ops().front();
  if (state != nullptr && server->hosts_primary(req.id()) &&
      op.seq() <= state->applied_seq() + 1) {
    state->apply(op);
    co_return Payload{smsg::HandoffApplyReply{state->applied_seq()}};
  }
  co_return Failure{FailureKind::kNotFound, "no handoff destination"};
}

Task<Result<Payload>> MigrationEngine::handle_finish(NodeId /*from*/,
                                                      Payload request) {
  const auto req = payload_cast<msg::MigFinishRequest>(std::move(request));
  StoreServer* server = repo_.server_at(node_);
  if (server == nullptr || !server->serving()) {
    co_return Failure{FailureKind::kUnreachable, "node recovering"};
  }
  co_await repo_.sim().delay(StoreServer::kMembershipLatency);
  const auto it = staging_.find(req.id());
  if (it == staging_.end() || !it->second->sealed) {
    co_return Payload{msg::MigFinishReply{false, 0}};
  }
  const CollectionState& staged = it->second->state;
  if (staged.applied_seq() < req.expected_last_seq() ||
      !it->second->pending.empty()) {
    // Below the cut line, or a buffered out-of-order forward is waiting on
    // the op that fills its gap: promoting now would drop an op whose
    // forward was already acknowledged. The source aborts and may retry.
    co_return Payload{msg::MigFinishReply{false, staged.applied_seq()}};
  }
  server = repo_.server_at(node_);
  if (server == nullptr || !server->serving()) {
    co_return Failure{FailureKind::kUnreachable, "node recovering"};
  }
  // Promote: install as a hosted primary continuing the same op stream.
  const std::uint64_t applied_seq =
      server->adopt_primary(req.id(), staged).applied_seq();
  // Erase before the checkpoint await: forwards arriving in that window
  // fall through to the adopted primary above.
  staging_.erase(req.id());
  const bool durable = co_await server->checkpoint_now();
  if (!durable) {
    co_return Failure{FailureKind::kNodeCrashed, "crashed persisting adoption"};
  }
  co_return Payload{msg::MigFinishReply{true, applied_seq}};
}

Task<Result<Payload>> MigrationEngine::handle_abort(NodeId /*from*/,
                                                     Payload request) {
  const auto req = payload_cast<msg::MigAbortRequest>(std::move(request));
  staging_.erase(req.id());
  // Orphan cleanup: if we promoted but the finish reply was lost, the
  // source aborted and the directory still points at it — retire our copy
  // (authority never transferred).
  StoreServer* server = repo_.server_at(node_);
  if (server != nullptr && server->serving() &&
      server->hosts_primary(req.id())) {
    const CollectionMeta& meta = repo_.meta(req.id());
    bool pointed_here = false;
    for (const FragmentMeta& frag : meta.fragments()) {
      if (frag.primary() == node_) pointed_here = true;
      for (const NodeId replica : frag.replicas()) {
        if (replica == node_) pointed_here = true;
      }
    }
    if (!pointed_here) {
      server->retire_collection(req.id(), NodeId::invalid(), meta.epoch());
      metrics_.add(kMetrics.orphans_retired);
    }
  }
  metrics_.add(kMetrics.stagings_aborted);
  co_return Payload{true};
}

}  // namespace weakset::placement
