#include "store/server.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

#include "store/messages.hpp"
#include "util/log.hpp"
#include "util/pool.hpp"

namespace weakset {
namespace {

/// This module's telemetry names, interned once per process.
struct ServerMetrics {
  obs::CounterId placement_fragments_adopted{"placement.fragments_adopted"};
  obs::CounterId placement_fragments_retired{"placement.fragments_retired"};
  obs::CounterId placement_handoff_forward_failures{
      "placement.handoff_forward_failures"};
  obs::CounterId placement_handoff_forwards{"placement.handoff_forwards"};
  obs::CounterId orset_pull_entries_shipped{"store.orset.pull_entries_shipped"};
  obs::CounterId orset_pull_failures{"store.orset.pull_failures"};
  obs::CounterId orset_pull_ops_applied{"store.orset.pull_ops_applied"};
  obs::CounterId orset_pull_rounds{"store.orset.pull_rounds"};
  obs::CounterId orset_pull_snapshots{"store.orset.pull_snapshots"};
  obs::CounterId orset_pulls_served{"store.orset.pulls_served"};
  obs::CounterId orset_snapshot_joins{"store.orset.snapshot_joins"};
  obs::CounterId replica_pull_failures{"store.replica.pull_failures"};
  obs::CounterId replica_pull_ops_applied{"store.replica.pull_ops_applied"};
  obs::CounterId replica_pull_rounds{"store.replica.pull_rounds"};
  obs::CounterId replica_snapshot_installs{"store.replica.snapshot_installs"};
  obs::CounterId server_adds_applied{"store.server.adds_applied"};
  obs::CounterId server_amnesia_crashes{"store.server.amnesia_crashes"};
  obs::CounterId server_batch_fetches{"store.server.batch_fetches"};
  obs::CounterId server_batch_objects{"store.server.batch_objects"};
  obs::CounterId server_delta_ops_shipped{"store.server.delta_ops_shipped"};
  obs::CounterId server_delta_reads{"store.server.delta_reads"};
  obs::CounterId server_delta_resyncs{"store.server.delta_resyncs"};
  obs::CounterId server_fetches{"store.server.fetches"};
  obs::CounterId server_mutations_deferred{"store.server.mutations_deferred"};
  obs::CounterId server_pull_ops_shipped{"store.server.pull_ops_shipped"};
  obs::CounterId server_pull_snapshots{"store.server.pull_snapshots"};
  obs::CounterId server_pulls_served{"store.server.pulls_served"};
  obs::CounterId server_removes_applied{"store.server.removes_applied"};
  obs::CounterId server_ship_cost_ns{"store.server.ship_cost_ns"};
  obs::CounterId server_snapshot_members_shipped{
      "store.server.snapshot_members_shipped"};
  obs::CounterId server_snapshot_reads{"store.server.snapshot_reads"};
  obs::CounterId wal_checkpoints{"wal.checkpoints"};
  obs::CounterId wal_ops_replayed{"wal.ops_replayed"};
  obs::CounterId wal_records_lost{"wal.records_lost"};
  obs::CounterId wal_recoveries{"wal.recoveries"};
  obs::CounterId wal_torn_tails_detected{"wal.torn_tails_detected"};
  obs::HistogramId server_batch_size{"store.server.batch_size"};
  obs::HistogramId wal_checkpoint{"wal.checkpoint"};
  obs::HistogramId wal_checkpoint_bytes{"wal.checkpoint_bytes"};
  obs::HistogramId wal_recovery{"wal.recovery"};
};
const ServerMetrics kMetrics{};

/// Simulated disk read for object payloads.
constexpr Duration kObjectReadLatency = Duration::millis(2);
/// Incremental disk cost per extra object of a store.fetch_batch: the first
/// object pays kObjectReadLatency in full, each further one only this much
/// (the reads overlap at the disk queue).
constexpr Duration kBatchReadIncrement = Duration::micros(250);
/// Simulated disk write for object payloads.
constexpr Duration kObjectWriteLatency = Duration::millis(4);

// Durable object names on the per-server SimDisk.
constexpr const char kWalFile[] = "wal";
constexpr const char kCheckpointFile[] = "checkpoint";

wal::WalRecord to_wal_record(CollectionId id, const CollectionOp& op,
                             std::uint64_t incarnation) {
  wal::WalRecord rec;
  rec.collection = id.raw();
  rec.kind = op.kind() == CollectionOp::Kind::kRemove ? wal::WalRecord::kRemove
                                                      : wal::WalRecord::kAdd;
  rec.object = op.ref().id().raw();
  rec.home = op.ref().home().raw();
  rec.seq = op.seq();
  rec.incarnation = incarnation;
  return rec;
}

CollectionOp to_collection_op(const wal::WalRecord& rec) {
  return CollectionOp{rec.kind == wal::WalRecord::kRemove
                          ? CollectionOp::Kind::kRemove
                          : CollectionOp::Kind::kAdd,
                      ObjectRef{ObjectId{rec.object}, NodeId{rec.home}},
                      rec.seq};
}

/// Migration marker record: `object` carries the peer node, `seq` the
/// directory epoch the marker belongs to (see wal.hpp).
wal::WalRecord migration_record(std::uint8_t kind, CollectionId id, NodeId peer,
                                std::uint64_t directory_epoch,
                                std::uint64_t incarnation) {
  wal::WalRecord rec;
  rec.collection = id.raw();
  rec.kind = kind;
  rec.object = peer.raw();
  rec.seq = directory_epoch;
  rec.incarnation = incarnation;
  return rec;
}

/// OR-Set dot-op record (ReplicationMode::kOrSet): `seq` carries the dot
/// counter and `origin` the minting replica — together the unique tag.
wal::WalRecord orset_wal_record(CollectionId id, const crdt::DotOp& op,
                                std::uint64_t incarnation) {
  wal::WalRecord rec;
  rec.collection = id.raw();
  rec.kind = op.kind() == crdt::DotOp::Kind::kKill ? wal::WalRecord::kOrSetKill
                                                   : wal::WalRecord::kOrSetInsert;
  rec.object = op.element().id().raw();
  rec.home = op.element().home().raw();
  rec.seq = op.dot().counter();
  rec.incarnation = incarnation;
  rec.origin = op.dot().origin();
  return rec;
}

wal::CollectionImage image_of(CollectionId id, const CollectionState& state) {
  wal::CollectionImage coll;
  coll.collection = id.raw();
  coll.incarnation = state.incarnation();
  coll.version = state.version();
  coll.last_seq = state.last_seq();
  coll.applied_seq = state.applied_seq();
  coll.members.reserve(state.size());
  for (const ObjectRef ref : state.members()) {
    coll.members.emplace_back(ref.id().raw(), ref.home().raw());
  }
  return coll;
}

/// A fragment's full OR-Set state: what a full-state orset.pull reply ships
/// and what a checkpoint stores.
wal::OrSetImage orset_image_of(CollectionId id, const crdt::OrSet& set) {
  wal::OrSetImage image;
  image.collection = id.raw();
  const crdt::DotContext& ctx = set.context();
  image.context_vector.assign(ctx.vector().begin(), ctx.vector().end());
  image.context_cloud.reserve(ctx.cloud().size());
  for (const crdt::Dot dot : ctx.cloud()) {
    image.context_cloud.emplace_back(dot.origin(), dot.counter());
  }
  const std::vector<crdt::DotOp> live = set.export_live();
  image.live.reserve(live.size());
  for (const crdt::DotOp& op : live) {
    image.live.push_back({op.element().id().raw(), op.element().home().raw(),
                          op.dot().origin(), op.dot().counter()});
  }
  return image;
}

/// Joins a fragment's full OR-Set state — its checkpoint image, or a peer's
/// full-state pull reply — into `set`; returns the dot ops that changed it.
std::vector<crdt::DotOp> join_image(crdt::OrSet& set,
                                    const wal::OrSetImage& image) {
  std::vector<crdt::DotOp> live;
  live.reserve(image.live.size());
  for (const wal::OrSetImage::LiveDot& dot : image.live) {
    live.emplace_back(crdt::DotOp::Kind::kInsert,
                      ObjectRef{ObjectId{dot.object}, NodeId{dot.home}},
                      crdt::Dot{dot.origin, dot.counter});
  }
  return set.join(
      crdt::DotContext::from_parts(image.context_vector, image.context_cloud),
      live);
}

Failure wrong_epoch(std::uint64_t directory_epoch) {
  return Failure{FailureKind::kWrongEpoch, std::to_string(directory_epoch)};
}

Failure node_crashed() {
  return Failure{FailureKind::kNodeCrashed, "node crashed"};
}

/// Every server's disk has the default cost model and crash lottery
/// (SimDiskOptions{}) and draws its own lottery: fork the default seed by
/// node id so same-seed runs stay byte-identical but servers differ.
SimDiskOptions node_disk_options(NodeId node) {
  SimDiskOptions options;
  options.seed ^= 0x9e3779b97f4a7c15ull * (node.raw() + 1);
  return options;
}

}  // namespace

StoreServer::StoreServer(RpcNetwork& net, NodeId node,
                         StoreServerOptions options)
    : net_(net),
      node_(node),
      options_(options),
      metrics_(obs::sink(options.metrics)),
      admission_(net.sim(), options.admission, metrics_),
      disk_(net.sim(), node_disk_options(node)),
      wal_(net.sim(), disk_, kWalFile, options.durability.fsync_interval,
           &metrics_) {
  if (options_.durability.block.enabled) {
    engine_ = std::make_unique<block::BlockEngine>(
        net_.sim(), disk_, options_.durability.block, metrics_);
    if (options_.durability.block.compaction_interval > Duration::zero()) {
      net_.sim().spawn(compaction_loop());
    }
  }
  register_handlers();
}

void StoreServer::register_handlers() {
  // All handlers are registered up front (before any traffic), so the
  // RpcNetwork handler table never rehashes under a suspended coroutine.
  auto bind = [this](auto method) {
    return [this, method](NodeId from, Payload request) {
      return (this->*method)(from, std::move(request));
    };
  };
  net_.register_handler(node_, "store.fetch", bind(&StoreServer::handle_fetch));
  net_.register_handler(node_, "store.fetch_batch",
                        bind(&StoreServer::handle_fetch_batch));
  net_.register_handler(node_, "store.put", bind(&StoreServer::handle_put));
  net_.register_handler(node_, "coll.snapshot",
                        bind(&StoreServer::handle_snapshot));
  net_.register_handler(node_, "coll.read_delta",
                        bind(&StoreServer::handle_read_delta));
  net_.register_handler(node_, "coll.membership",
                        bind(&StoreServer::handle_membership));
  net_.register_handler(node_, "coll.freeze",
                        bind(&StoreServer::handle_freeze));
  net_.register_handler(node_, "coll.pin", bind(&StoreServer::handle_pin));
  net_.register_handler(node_, "coll.pull", bind(&StoreServer::handle_pull));
  net_.register_handler(node_, "orset.pull",
                        bind(&StoreServer::handle_orset_pull));
}

CollectionState& StoreServer::host_primary(CollectionId id) {
  auto entry = std::make_unique<Hosted>(id);
  entry->primary = NodeId::invalid();
  entry->unfrozen = std::make_unique<Gate>(net_.sim(), /*open=*/true);
  entry->state.set_log_cap(options_.membership_log_cap);
  auto [it, inserted] = collections_.emplace(id, std::move(entry));
  assert(inserted && "collection already hosted here");
  install_wal_observer(*it->second);
  attach_backing(id, *it->second);
  return it->second->state;
}

CollectionState& StoreServer::host_replica(CollectionId id, NodeId primary) {
  auto entry = std::make_unique<Hosted>(id);
  entry->primary = primary;
  entry->unfrozen = std::make_unique<Gate>(net_.sim(), /*open=*/true);
  entry->state.set_log_cap(options_.membership_log_cap);
  auto [it, inserted] = collections_.emplace(id, std::move(entry));
  assert(inserted && "collection already hosted here");
  install_wal_observer(*it->second);
  attach_backing(id, *it->second);
  it->second->peers.push_back(primary);
  net_.sim().spawn(pull_loop(id));
  return it->second->state;
}

crdt::OrSet& StoreServer::host_orset(CollectionId id) {
  auto entry = std::make_unique<Hosted>(id);
  // Every OR-Set host is write-accepting: primary stays invalid, so the
  // mutation handler's replica rejection never fires and crash recovery
  // treats the fragment as locally authoritative.
  entry->primary = NodeId::invalid();
  entry->unfrozen = std::make_unique<Gate>(net_.sim(), /*open=*/true);
  entry->orset = std::make_unique<crdt::OrSet>(id);
  entry->orset->set_origin(
      crdt::make_origin(node_.raw(), entry->state.incarnation()));
  entry->orset_log.set_cap(options_.membership_log_cap);
  auto [it, inserted] = collections_.emplace(id, std::move(entry));
  assert(inserted && "collection already hosted here");
  // No CollectionState op observer: OR-Set WAL appends are explicit
  // (orset_wal_append), because remote dot ops must be logged too.
  net_.sim().spawn(pull_loop(id));
  return *it->second->orset;
}

void StoreServer::add_orset_peer(CollectionId id, NodeId peer) {
  Hosted& entry = hosted(id);
  assert(entry.orset != nullptr && "peer wiring requires OR-Set hosting");
  if (std::find(entry.peers.begin(), entry.peers.end(), peer) ==
      entry.peers.end()) {
    entry.peers.push_back(peer);
  }
}

const crdt::OrSet* StoreServer::orset_state(CollectionId id) const {
  const auto it = collections_.find(id);
  return it == collections_.end() ? nullptr : it->second->orset.get();
}

bool StoreServer::seed_orset_member(CollectionId id, ObjectRef ref) {
  Hosted& entry = hosted(id);
  assert(entry.orset != nullptr && "seeding requires OR-Set hosting");
  return apply_local(entry, /*is_add=*/true, ref);
}

CollectionState* StoreServer::collection(CollectionId id) {
  const auto it = collections_.find(id);
  return it == collections_.end() ? nullptr : &it->second->state;
}

const CollectionState* StoreServer::collection(CollectionId id) const {
  const auto it = collections_.find(id);
  return it == collections_.end() ? nullptr : &it->second->state;
}

StoreServer::Hosted& StoreServer::hosted(CollectionId id) {
  const auto it = collections_.find(id);
  assert(it != collections_.end());
  return *it->second;
}

StoreServer::Hosted* StoreServer::find_entry(CollectionId id) {
  const auto it = collections_.find(id);
  return it == collections_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------------
// Live fragment migration (src/placement, DESIGN.md decision 12)

bool StoreServer::hosts_primary(CollectionId id) const {
  const auto it = collections_.find(id);
  return it != collections_.end() && !it->second->primary.valid() &&
         !it->second->retired;
}

bool StoreServer::is_retired(CollectionId id) const {
  const auto it = collections_.find(id);
  return it != collections_.end() && it->second->retired;
}

bool StoreServer::migration_blocked(CollectionId id) const {
  const auto it = collections_.find(id);
  if (it == collections_.end()) return true;
  const Hosted& entry = *it->second;
  // OR-Set fragments are multi-master: there is no single authority to move,
  // so migration is meaningless (and permanently refused) for them.
  return entry.retired || entry.frozen_by != 0 || entry.pin_count > 0 ||
         !entry.deferred_removes.empty() || entry.handoff_target.valid() ||
         entry.orset != nullptr;
}

StoreServer::FragmentLoad StoreServer::fragment_load(CollectionId id) const {
  FragmentLoad load;
  const auto it = collections_.find(id);
  if (it == collections_.end()) return load;
  const Hosted& entry = *it->second;
  load.reads = entry.reads;
  load.ops = entry.ops;
  load.reads_by_node.assign(entry.reads_by_node.begin(),
                            entry.reads_by_node.end());
  return load;
}

wal::CollectionImage StoreServer::export_image(CollectionId id) const {
  const auto it = collections_.find(id);
  assert(it != collections_.end() && "exporting an unhosted fragment");
  return image_of(id, it->second->state);
}

void StoreServer::log_migration_begin(CollectionId id, NodeId target) {
  Hosted& entry = hosted(id);
  last_wal_index_ = wal_.append(
      migration_record(wal::WalRecord::kMigrationBegin, id, target,
                       /*directory_epoch=*/0, entry.state.incarnation()));
  arm_checkpoint();
}

void StoreServer::set_handoff(CollectionId id, NodeId target) {
  hosted(id).handoff_target = target;
}

void StoreServer::clear_handoff(CollectionId id) {
  if (Hosted* entry = find_entry(id)) {
    entry->handoff_target = NodeId::invalid();
  }
}

void StoreServer::retire_collection(CollectionId id, NodeId target,
                                    std::uint64_t directory_epoch) {
  Hosted& entry = hosted(id);
  assert(!entry.primary.valid() && "only fragment primaries migrate");
  entry.retired = true;
  entry.retired_epoch = directory_epoch;
  entry.handoff_target = NodeId::invalid();
  // Waiters on the freeze gate resume and hit the retired check; pins and
  // their deferred ghosts moved with the authority.
  release_freeze(entry);
  entry.pin_count = 0;
  entry.deferred_removes.clear();
  last_wal_index_ = wal_.append(
      migration_record(wal::WalRecord::kMigrationDone, id, target,
                       directory_epoch, entry.state.incarnation()));
  arm_checkpoint();  // the next checkpoint drops the tombstoned state
  metrics_.add(kMetrics.placement_fragments_retired);
}

CollectionState& StoreServer::adopt_primary(CollectionId id,
                                            const CollectionState& staged) {
  Hosted* entry = find_entry(id);
  if (entry == nullptr) {
    host_primary(id);
    entry = find_entry(id);
  }
  assert(!entry->primary.valid() && "cannot adopt over a replica");
  entry->retired = false;
  entry->retired_epoch = 0;
  entry->handoff_target = NodeId::invalid();
  // The adopted membership continues the source's op-sequence stream:
  // cursors and incarnation restore verbatim. Nothing goes through the WAL
  // (restore does not fire the op observer); the checkpoint the migration
  // engine writes right after this makes the adoption durable.
  entry->state.restore(staged.members(), staged.version(), staged.last_seq(),
                       staged.applied_seq(), staged.incarnation());
  metrics_.add(kMetrics.placement_fragments_adopted);
  return entry->state;
}

Task<bool> StoreServer::checkpoint_now() {
  return write_checkpoint(epoch_);
}

// ---------------------------------------------------------------------------
// Anti-entropy

Task<void> StoreServer::pull_loop(CollectionId id) {
  Simulator& sim = net_.sim();
  Hosted& entry = hosted(id);
  for (;;) {
    co_await sim.delay(options_.pull_interval);
    if (stopping_) co_return;
    if (!serving_) continue;  // recovering: resume pulling afterwards
    // add_orset_peer may append a peer under a co_await below; this round
    // pulls the peers it started with.
    const std::size_t peers = entry.peers.size();
    for (std::size_t i = 0; i < peers; ++i) {
      const std::uint64_t epoch = epoch_;
      if (entry.orset != nullptr) {
        co_await pull_dots(entry, entry.peers[i]);
      } else {
        co_await pull_ops(entry, entry.peers[i]);
      }
      if (epoch != epoch_) break;  // crashed meanwhile: this round is stale
    }
  }
}

Task<void> StoreServer::pull_ops(Hosted& entry, NodeId primary) {
  CollectionState& state = entry.state;
  metrics_.add(kMetrics.replica_pull_rounds);
  const std::uint64_t epoch = epoch_;
  auto reply = co_await net_.call_typed<msg::DeltaReply>(
      node_, primary, "coll.pull",
      msg::DeltaRequest{state.id(), state.applied_seq(), state.incarnation()},
      pull_timeout());
  if (epoch != epoch_) co_return;  // crashed meanwhile: the reply is stale
  if (!reply) {
    metrics_.add(kMetrics.replica_pull_failures);
    co_return;  // primary unreachable; retry next round
  }
  if (!reply.value().is_delta()) {
    // The primary's log was truncated past our cursor (or the sequence
    // stream changed incarnation): install the full membership and resume
    // op-by-op from its seq.
    metrics_.add(kMetrics.replica_snapshot_installs);
    const std::uint64_t version = reply.value().version();
    const std::uint64_t seq = reply.value().seq();
    const std::uint64_t incarnation = reply.value().incarnation();
    state.install(std::move(reply).value().take_members(), version, seq);
    state.set_incarnation(incarnation);
    // Nothing of the installed membership is in the WAL: checkpoint soon
    // so a crash does not set this replica all the way back.
    arm_checkpoint();
    co_return;
  }
  if (engine_ != nullptr && !reply.value().ops().empty()) {
    co_await fault_ops(entry, reply.value().ops());
    if (epoch != epoch_) co_return;
  }
  // Apply the contiguous prefix past our cursor only: a gap would skip an
  // op for good.
  for (const CollectionOp& op : reply.value().ops()) {
    if (op.seq() <= state.applied_seq()) continue;
    if (op.seq() != state.applied_seq() + 1) break;
    state.apply(op);
    metrics_.add(kMetrics.replica_pull_ops_applied);
  }
  VectorPool<CollectionOp>::release(std::move(reply).value().take_ops());
}

Task<void> StoreServer::pull_dots(Hosted& entry, NodeId peer) {
  const Hosted::OrSetCursor cursor = entry.orset_cursors[peer];
  metrics_.add(kMetrics.orset_pull_rounds);
  const std::uint64_t epoch = epoch_;
  auto reply = co_await net_.call_typed<msg::OrSetPullReply>(
      node_, peer, "orset.pull",
      msg::DeltaRequest{entry.state.id(), cursor.after_seq, cursor.incarnation},
      pull_timeout());
  if (epoch != epoch_) co_return;  // crashed meanwhile: the reply is stale
  if (!reply) {
    metrics_.add(kMetrics.orset_pull_failures);
    co_return;  // peer unreachable (partition): retry next round
  }
  const msg::OrSetPullReply& r = reply.value();
  if (r.is_full_state()) {
    // Cursor expired (bounded log) or the peer restarted with amnesia:
    // merge its full state. join() expresses every state change as a dot
    // op, which we WAL like any remote delivery.
    metrics_.add(kMetrics.orset_snapshot_joins);
    const std::vector<crdt::DotOp> applied =
        join_image(*entry.orset, r.image());
    for (const crdt::DotOp& op : applied) orset_wal_append(entry, op);
    metrics_.add(kMetrics.orset_pull_ops_applied, applied.size());
  } else {
    for (const crdt::DotOp& op : r.ops()) {
      if (entry.orset->apply(op)) {
        orset_wal_append(entry, op);
        metrics_.add(kMetrics.orset_pull_ops_applied);
      }
    }
  }
  entry.orset_cursors[peer] = Hosted::OrSetCursor{r.end_seq(), r.incarnation()};
}

// ---------------------------------------------------------------------------
// Handlers

Task<Result<StoreServer::Entered>> StoreServer::enter(CollectionId id,
                                                      bool admit) {
  if (!serving_) {
    co_return Failure{FailureKind::kUnreachable, "node recovering"};
  }
  const std::uint64_t epoch = epoch_;
  AdmissionTicket ticket;
  if (admit && admission_.enabled()) {
    ticket = co_await admission_.admit(tenant_of(id));
    if (epoch != epoch_) co_return node_crashed();
    if (!ticket.admitted()) {
      co_return Failure{FailureKind::kOverloaded, "admission queue full"};
    }
  }
  co_await net_.sim().delay(kMembershipLatency);
  if (epoch != epoch_) co_return node_crashed();
  Hosted* entry = find_entry(id);
  if (entry == nullptr) {
    co_return Failure{FailureKind::kNotFound, "collection not hosted"};
  }
  if (entry->retired) co_return wrong_epoch(entry->retired_epoch);
  co_return Entered{*entry, epoch, std::move(ticket)};
}

Duration StoreServer::ship(std::size_t entries) {
  const Duration cost =
      options_.membership_entry_cost * static_cast<std::int64_t>(entries);
  metrics_.add(kMetrics.server_ship_cost_ns,
               static_cast<std::uint64_t>(cost.count_nanos()));
  return cost;
}

Task<Result<Payload>> StoreServer::reply_members(const Hosted& entry,
                                                 std::uint64_t epoch) {
  // Shipping the whole membership costs per member — the cost delta replies
  // avoid. An OR-Set fragment serves its local replica, which may lag peers
  // until anti-entropy quiesces (the availability/staleness trade the mode
  // buys); its dormant `state` has no ops, so the cursor shipped is 0.
  metrics_.add(kMetrics.server_snapshot_members_shipped, entry.size());
  co_await net_.sim().delay(ship(entry.size()));
  if (epoch != epoch_) co_return node_crashed();
  const std::vector<ObjectRef>& current = entry.members();
  std::vector<ObjectRef> members = VectorPool<ObjectRef>::acquire();
  members.assign(current.begin(), current.end());
  co_return Payload{msg::DeltaReply::full_snapshot(
      std::move(members), entry.version(), entry.state.last_seq(),
      entry.state.incarnation())};
}

Task<Result<Payload>> StoreServer::reply_ops(const CollectionState& state,
                                             std::uint64_t since_seq,
                                             std::uint64_t epoch,
                                             obs::CounterId shipped) {
  // Slice the ops and the cursor they run up to at the same instant: a
  // mutation landing during the shipping delay below would otherwise
  // advance last_seq past the ops actually shipped, and the follower — which
  // takes the reply's seq as its cursor — would skip the missed ops forever.
  const std::uint64_t version = state.version();
  const std::uint64_t last_seq = state.last_seq();
  const std::uint64_t incarnation = state.incarnation();
  std::vector<CollectionOp> ops = VectorPool<CollectionOp>::acquire();
  state.log().since(since_seq, ops);
  metrics_.add(shipped, ops.size());
  co_await net_.sim().delay(ship(ops.size()));
  if (epoch != epoch_) co_return node_crashed();
  co_return Payload{
      msg::DeltaReply::delta(std::move(ops), version, last_seq, incarnation)};
}

Task<Result<Payload>> StoreServer::handle_fetch(NodeId /*from*/,
                                                 Payload request) {
  const auto req = payload_cast<msg::FetchRequest>(std::move(request));
  if (!serving_) {
    co_return Failure{FailureKind::kUnreachable, "node recovering"};
  }
  metrics_.add(kMetrics.server_fetches);
  co_await net_.sim().delay(kObjectReadLatency);
  const auto value = objects_.get(req.id());
  if (!value) {
    co_return Failure{FailureKind::kNotFound,
                      "object " + std::to_string(req.id().raw())};
  }
  co_return Payload{*value};
}

Task<Result<Payload>> StoreServer::handle_fetch_batch(NodeId /*from*/,
                                                       Payload request) {
  const auto req = payload_cast<msg::FetchBatchRequest>(std::move(request));
  if (!serving_) {
    co_return Failure{FailureKind::kUnreachable, "node recovering"};
  }
  metrics_.add(kMetrics.server_batch_fetches);
  metrics_.add(kMetrics.server_batch_objects, req.ids().size());
  metrics_.record_value(kMetrics.server_batch_size,
                        static_cast<std::int64_t>(req.ids().size()));
  // Overlapped disk reads: the first object pays the full read latency, each
  // further object only the incremental cost of another read in the queue.
  Duration cost = kObjectReadLatency;
  if (req.ids().size() > 1) {
    cost = cost + kBatchReadIncrement *
                      static_cast<std::int64_t>(req.ids().size() - 1);
  }
  co_await net_.sim().delay(cost);
  std::vector<Result<VersionedValue>> results =
      VectorPool<Result<VersionedValue>>::acquire();
  results.reserve(req.ids().size());
  for (const ObjectId id : req.ids()) {
    const auto value = objects_.get(id);
    if (value) {
      results.emplace_back(*value);
    } else {
      results.emplace_back(Failure{FailureKind::kNotFound,
                                   "object " + std::to_string(id.raw())});
    }
  }
  co_return Payload{msg::FetchBatchReply{std::move(results)}};
}

Task<Result<Payload>> StoreServer::handle_put(NodeId /*from*/,
                                               Payload request) {
  auto req = payload_cast<msg::PutRequest>(std::move(request));
  if (!serving_) {
    co_return Failure{FailureKind::kUnreachable, "node recovering"};
  }
  co_await net_.sim().delay(kObjectWriteLatency);
  const ObjectId id = req.id();
  co_return Payload{objects_.put(id, std::move(req).take_data())};
}

Task<Result<Payload>> StoreServer::handle_snapshot(NodeId from,
                                                    Payload request) {
  const auto req = payload_cast<msg::SnapshotRequest>(std::move(request));
  auto in = co_await enter(req.id(), /*admit=*/true);
  if (!in) co_return std::move(in).error();
  Hosted& entry = in.value().entry;
  ++entry.reads;
  ++entry.reads_by_node[from.raw()];
  metrics_.add(kMetrics.server_snapshot_reads);
  co_return co_await reply_members(entry, in.value().epoch);
}

Task<Result<Payload>> StoreServer::handle_read_delta(NodeId from,
                                                      Payload request) {
  const auto req = payload_cast<msg::DeltaRequest>(std::move(request));
  auto in = co_await enter(req.id(), /*admit=*/true);
  if (!in) co_return std::move(in).error();
  Hosted& entry = in.value().entry;
  ++entry.reads;
  ++entry.reads_by_node[from.raw()];
  const CollectionState& state = entry.state;
  // Serve ops when the cursor names this fragment's op stream (same
  // incarnation — an amnesia recovery in between starts a new stream whose
  // sequence numbers are unrelated), is inside the retained log window,
  // *and* the delta is no larger than the membership itself; otherwise
  // resync the reader with a full snapshot. A cursor past last_seq means the
  // reader followed a fresher host here by mistake (the client keys its
  // cache per host precisely to avoid this) — a resync, not an error.
  // OR-Set fragments have no single op-sequence stream a cursor could
  // follow (dots interleave from many origins), so their readers always
  // resync.
  const bool can_delta = entry.orset == nullptr && req.since_seq() != 0 &&
                         req.since_incarnation() == state.incarnation() &&
                         state.log().covers(req.since_seq()) &&
                         state.last_seq() - req.since_seq() <= state.size();
  if (!can_delta) {
    metrics_.add(kMetrics.server_delta_resyncs);
    co_return co_await reply_members(entry, in.value().epoch);
  }
  metrics_.add(kMetrics.server_delta_reads);
  co_return co_await reply_ops(state, req.since_seq(), in.value().epoch,
                               kMetrics.server_delta_ops_shipped);
}

Task<Result<Payload>> StoreServer::handle_membership(NodeId /*from*/,
                                                      Payload request) {
  const auto req = payload_cast<msg::MembershipRequest>(std::move(request));
  auto in = co_await enter(req.id(), /*admit=*/true);
  if (!in) co_return std::move(in).error();
  Hosted& entry = in.value().entry;
  const std::uint64_t epoch = in.value().epoch;
  if (entry.primary.valid()) {
    co_return Failure{FailureKind::kNotFound,
                      "replica does not accept mutations"};
  }
  ++entry.ops;
  // Honour an active freeze: mutators wait until the lock is released or its
  // lease expires. (The waiting RPC may time out at the caller meanwhile —
  // exactly the cost of strong semantics the paper warns about.) An amnesia
  // crash releases the freeze and wakes the gate; the epoch check catches
  // that case, and the retired check catches a migration committing while we
  // queued.
  while (entry.frozen_by != 0) {
    co_await entry.unfrozen->wait();
    if (epoch != epoch_) co_return node_crashed();
  }
  if (entry.retired) co_return wrong_epoch(entry.retired_epoch);
  const bool is_add = req.op() == msg::MembershipRequest::Op::kAdd;
  const CollectionOp::Kind kind =
      is_add ? CollectionOp::Kind::kAdd : CollectionOp::Kind::kRemove;
  if (!is_add && entry.pin_count > 0) {
    // Grow-only pin active: the removal is accepted but deferred; the member
    // lingers as a "ghost" until the last pin is released (section 3.3).
    metrics_.add(kMetrics.server_mutations_deferred);
    entry.deferred_removes.push_back(req.ref());
    co_return Payload{
        msg::MembershipReply{entry.contains(req.ref()), entry.version()}};
  }
  if (entry.backing != nullptr) {
    // Block engine: page the member's bucket in (charging the extent read
    // and any evictions it forces) before the synchronous mutation below.
    co_await fault_member(entry, req.ref());
    if (epoch != epoch_) co_return node_crashed();
    if (entry.retired) co_return wrong_epoch(entry.retired_epoch);
  }
  const bool changed = apply_local(entry, is_add, req.ref());
  // The write just appended its WAL record; capture the index before
  // anything else can append.
  const std::uint64_t wal_index = last_wal_index_;
  if (changed && sink_ != nullptr) {
    sink_->on_mutation(req.id(), kind, req.ref());
  }
  const std::uint64_t version = entry.version();
  if (changed) {
    metrics_.add(is_add ? kMetrics.server_adds_applied
                        : kMetrics.server_removes_applied);
    if (entry.handoff_target.valid()) {
      // Dual-home window (DESIGN.md decision 12): forward the committed op
      // to the migration target before acking, so the staged copy never
      // misses a mutation. The target applies without re-announcing to the
      // mutation sink — ground truth sees each op exactly once.
      const NodeId target = entry.handoff_target;
      msg::SyncRequest forward{
          req.id(), {CollectionOp{kind, req.ref(), entry.state.last_seq()}},
          entry.state.incarnation()};
      metrics_.add(kMetrics.placement_handoff_forwards);
      auto forwarded = co_await net_.call_typed<msg::HandoffApplyReply>(
          node_, target, "mig.apply", std::move(forward));
      if (epoch != epoch_) co_return node_crashed();
      if (!forwarded) {
        // Target unreachable mid-handoff: drop back to single home here.
        // The migration's finish step fails its completeness check and the
        // whole attempt aborts; the directory was never bumped.
        entry.handoff_target = NodeId::invalid();
        metrics_.add(kMetrics.placement_handoff_forward_failures);
      }
    }
    if (options_.durability.durable_acks) {
      // Strict commit: hold the ack until the WAL record is fsynced. A
      // crash first means the mutation's durability is unknown — fail the
      // RPC; the caller retries or reports.
      const bool durable = co_await wal_.wait_durable(wal_index);
      if (!durable || epoch != epoch_) {
        co_return Failure{FailureKind::kNodeCrashed,
                          "mutation lost to crash during commit"};
      }
    }
  }
  co_return Payload{msg::MembershipReply{changed, version}};
}

bool StoreServer::apply_local(Hosted& entry, bool is_add, ObjectRef ref) {
  if (entry.orset == nullptr) {
    return is_add ? entry.state.add(ref) : entry.state.remove(ref);
  }
  // OR-Set multi-master write: no coordination with peers, which is exactly
  // why it survives a partition; anti-entropy ships the logged dot ops.
  const std::vector<crdt::DotOp> ops =
      is_add ? entry.orset->add(ref) : entry.orset->remove(ref);
  for (const crdt::DotOp& op : ops) {
    entry.orset_log.append(op);
    orset_wal_append(entry, op);
  }
  return !ops.empty();
}

void StoreServer::release_freeze(Hosted& entry) {
  entry.frozen_by = 0;
  entry.lease_timer.cancel();
  entry.unfrozen->open();
}

Task<Result<Payload>> StoreServer::handle_freeze(NodeId /*from*/,
                                                  Payload request) {
  const auto req = payload_cast<msg::FreezeRequest>(std::move(request));
  auto in = co_await enter(req.id(), /*admit=*/false);
  if (!in) co_return std::move(in).error();
  Hosted& entry = in.value().entry;
  assert(req.token() != 0 && "freeze token 0 is reserved for 'unfrozen'");
  if (req.freeze() && entry.handoff_target.valid()) {
    // Mid-migration (dual-home handoff): lock state does not transfer with
    // the fragment, so refuse the freeze instead of granting a lock that
    // would silently die at the commit. The client fails its freeze_all
    // cleanly and can retry after the (short) handoff window.
    co_return Failure{FailureKind::kUnreachable, "fragment migrating"};
  }
  if (req.freeze()) {
    // Queue behind the current holder (if any), then take the lock.
    while (entry.frozen_by != 0 && entry.frozen_by != req.token()) {
      co_await entry.unfrozen->wait();
      if (in.value().epoch != epoch_) co_return node_crashed();
    }
    if (entry.retired) co_return wrong_epoch(entry.retired_epoch);
    if (entry.handoff_target.valid()) {
      co_return Failure{FailureKind::kUnreachable, "fragment migrating"};
    }
    entry.frozen_by = req.token();
    entry.unfrozen->close();
    // Lease: auto-release if the holder never comes back.
    entry.lease_timer.cancel();
    Hosted* entry_ptr = &entry;
    const std::uint64_t token = req.token();
    entry.lease_timer = net_.sim().schedule_cancellable(
        options_.freeze_lease, [this, entry_ptr, token] {
          if (entry_ptr->frozen_by == token) {
            WEAKSET_DEBUG("freeze lease expired, token " << token);
            release_freeze(*entry_ptr);
          }
        });
  } else {
    if (entry.frozen_by == req.token()) release_freeze(entry);
  }
  co_return Payload{true};
}

Task<Result<Payload>> StoreServer::handle_pin(NodeId /*from*/,
                                               Payload request) {
  const auto req = payload_cast<msg::PinRequest>(std::move(request));
  auto in = co_await enter(req.id(), /*admit=*/false);
  if (!in) co_return std::move(in).error();
  Hosted& entry = in.value().entry;
  if (req.pin() && entry.handoff_target.valid()) {
    // Deferred removals would be applied (and announced) at unpin without
    // being forwarded to the handoff target — refuse like freeze does.
    co_return Failure{FailureKind::kUnreachable, "fragment migrating"};
  }
  if (req.pin()) {
    ++entry.pin_count;
  } else if (entry.pin_count > 0 && --entry.pin_count == 0) {
    // Garbage-collect the ghosts: apply the deferred removals now.
    for (const ObjectRef ref : entry.deferred_removes) {
      if (apply_local(entry, /*is_add=*/false, ref) && sink_ != nullptr) {
        sink_->on_mutation(req.id(), CollectionOp::Kind::kRemove, ref);
      }
    }
    entry.deferred_removes.clear();
  }
  co_return Payload{true};
}

Task<Result<Payload>> StoreServer::handle_pull(NodeId /*from*/,
                                                Payload request) {
  const auto req = payload_cast<msg::DeltaRequest>(std::move(request));
  auto in = co_await enter(req.id(), /*admit=*/false);
  if (!in) co_return std::move(in).error();
  const CollectionState& state = in.value().entry.state;
  metrics_.add(kMetrics.server_pulls_served);
  // A replica that fell behind the bounded log window cannot catch up op by
  // op any more — and one whose cursor belongs to another incarnation
  // (amnesia recovery on either side) cannot catch up at all: send the
  // whole membership for wholesale install.
  if (req.since_incarnation() != state.incarnation() ||
      !state.log().covers(req.since_seq())) {
    metrics_.add(kMetrics.server_pull_snapshots);
    co_return co_await reply_members(in.value().entry, in.value().epoch);
  }
  co_return co_await reply_ops(state, req.since_seq(), in.value().epoch,
                               kMetrics.server_pull_ops_shipped);
}

// ---------------------------------------------------------------------------
// OR-Set anti-entropy (src/crdt, DESIGN.md decision 16)

void StoreServer::orset_wal_append(Hosted& entry, const crdt::DotOp& op) {
  if (wal_suspended_) return;
  last_wal_index_ = wal_.append(
      orset_wal_record(entry.state.id(), op, entry.state.incarnation()));
  arm_checkpoint();
}

Task<Result<Payload>> StoreServer::handle_orset_pull(NodeId /*from*/,
                                                     Payload request) {
  const auto req = payload_cast<msg::DeltaRequest>(std::move(request));
  auto in = co_await enter(req.id(), /*admit=*/false);
  if (!in) co_return std::move(in).error();
  const Hosted& entry = in.value().entry;
  const std::uint64_t epoch = in.value().epoch;
  if (entry.orset == nullptr) {
    co_return Failure{FailureKind::kNotFound, "collection not hosted"};
  }
  metrics_.add(kMetrics.orset_pulls_served);
  const std::uint64_t incarnation = entry.state.incarnation();
  const std::uint64_t end_seq = entry.orset_log.last_seq();
  // Cursor from another incarnation (someone restarted with amnesia) or
  // off the bounded log window: ship the full state for a join.
  const bool can_delta = req.since_incarnation() == incarnation &&
                         entry.orset_log.covers(req.since_seq());
  if (!can_delta) metrics_.add(kMetrics.orset_pull_snapshots);
  msg::OrSetPullReply reply =
      can_delta ? msg::OrSetPullReply::delta(
                      entry.orset_log.since(req.since_seq()), end_seq,
                      incarnation)
                : msg::OrSetPullReply::full_state(
                      orset_image_of(req.id(), *entry.orset), end_seq,
                      incarnation);
  metrics_.add(kMetrics.orset_pull_entries_shipped, reply.entry_count());
  co_await net_.sim().delay(ship(reply.entry_count()));
  if (epoch != epoch_) co_return node_crashed();
  co_return Payload{std::move(reply)};
}

// ---------------------------------------------------------------------------
// Durability: WAL hook, checkpoints, crash wipe, recovery
// (DESIGN.md decision 11)

void StoreServer::install_wal_observer(Hosted& entry) {
  CollectionState* state = &entry.state;
  state->set_op_observer([this, state](const CollectionOp& op) {
    if (wal_suspended_) return;  // recovery replay: already on disk
    last_wal_index_ =
        wal_.append(to_wal_record(state->id(), op, state->incarnation()));
    arm_checkpoint();
  });
}

void StoreServer::attach_backing(CollectionId id, Hosted& entry) {
  if (engine_ == nullptr || entry.orset != nullptr) return;
  entry.backing = std::make_unique<BlockBacking>(*engine_, id);
  entry.state.set_backing(entry.backing.get());
}

Task<void> StoreServer::fault_member(Hosted& entry, ObjectRef ref) {
  if (entry.backing == nullptr) co_return;
  co_await engine_->fault(entry.backing->raw_id(), ref.id().raw(),
                          ref.home().raw());
}

Task<void> StoreServer::fault_ops(Hosted& entry,
                                  const std::vector<CollectionOp>& ops) {
  if (entry.backing == nullptr) co_return;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> refs;
  refs.reserve(ops.size());
  for (const CollectionOp& op : ops) {
    refs.emplace_back(op.ref().id().raw(), op.ref().home().raw());
  }
  co_await engine_->fault_many(entry.backing->raw_id(), std::move(refs));
}

Task<void> StoreServer::compaction_loop() {
  Simulator& sim = net_.sim();
  for (;;) {
    co_await sim.delay(options_.durability.block.compaction_interval);
    if (stopping_) co_return;
    if (!serving_) continue;  // recovering: resume compacting afterwards
    const std::uint64_t epoch = epoch_;
    std::uint32_t moves = 0;
    for (const CollectionId id : hosted_ids_sorted()) {
      const Hosted& entry = hosted(id);
      if (entry.backing == nullptr || entry.retired) continue;
      moves += co_await engine_->compact_round(entry.backing->raw_id());
      if (epoch != epoch_) break;
    }
    if (epoch != epoch_) continue;
    // Relocations only shrink the file once a checkpoint publishes the moved
    // roots and commits the retired extents back to the free list.
    if (moves > 0) arm_checkpoint();
  }
}

void StoreServer::arm_checkpoint() {
  if (checkpoint_armed_) return;
  checkpoint_armed_ = true;
  const std::uint64_t epoch = epoch_;
  checkpoint_timer_ = net_.sim().schedule_cancellable(
      options_.durability.checkpoint_interval, [this, epoch] {
        checkpoint_armed_ = false;
        if (epoch != epoch_ || stopping_) return;
        net_.sim().spawn(checkpoint_task(epoch));
      });
}

Task<void> StoreServer::checkpoint_task(std::uint64_t epoch) {
  co_await write_checkpoint(epoch);
}

std::vector<CollectionId> StoreServer::hosted_ids_sorted() const {
  std::vector<CollectionId> ids;
  ids.reserve(collections_.size());
  for (const auto& [id, entry] : collections_) ids.push_back(id);
  std::sort(ids.begin(), ids.end(),
            [](CollectionId a, CollectionId b) { return a.raw() < b.raw(); });
  return ids;
}

Task<bool> StoreServer::write_checkpoint(std::uint64_t epoch) {
  // Snapshot every hosted fragment at this one instant; the WAL mark taken
  // at the same instant is exactly the prefix the image covers, so the
  // truncation below is safe even though appends continue during the write.
  wal::CheckpointImage image;
  std::vector<const Hosted*> backed;
  for (const CollectionId id : hosted_ids_sorted()) {
    const Hosted& entry = *collections_.at(id);
    // Tombstones stay out of the checkpoint: once this image lands (and the
    // WAL prefix holding the kMigrationDone record truncates), the migrated
    // fragment is durably gone from this node.
    if (entry.retired) continue;
    if (entry.orset != nullptr) {
      image.orsets.push_back(orset_image_of(id, *entry.orset));
      continue;
    }
    // Block-backed fragments checkpoint incrementally through the engine
    // (below) instead of materializing into the whole-file image.
    if (entry.backing != nullptr) {
      backed.push_back(&entry);
      continue;
    }
    image.collections.push_back(image_of(id, entry.state));
  }
  const std::uint64_t wal_mark = disk_.log_next_index(kWalFile);
  const SimTime start = net_.sim().now();
  // Engine checkpoints: dirty leaves + root per fragment, superblock
  // published atomically. Each captures its snapshot at or after the WAL
  // mark above, so truncating to the mark keeps every op either inside a
  // durable image or in the retained tail (replay gates on seq, so overlap
  // is harmless).
  for (const Hosted* entry : backed) {
    if (entry->retired) continue;  // migrated away under an earlier co_await
    block::ProtoState proto;
    proto.incarnation = entry->state.incarnation();
    proto.version = entry->state.version();
    proto.last_seq = entry->state.last_seq();
    proto.applied_seq = entry->state.applied_seq();
    proto.wal_upto = wal_mark;
    const bool ok =
        co_await engine_->checkpoint(entry->backing->raw_id(), proto);
    if (!ok || epoch != epoch_) co_return false;
  }
  std::string bytes = wal::encode(image);
  metrics_.record_value(kMetrics.wal_checkpoint_bytes,
                        static_cast<std::int64_t>(bytes.size()));
  const bool written = co_await disk_.write_file(kCheckpointFile,
                                                 std::move(bytes));
  if (!written || epoch != epoch_) co_return false;
  disk_.truncate_log_prefix(kWalFile, wal_mark);
  wal_.notify_progress();
  metrics_.add(kMetrics.wal_checkpoints);
  metrics_.record(kMetrics.wal_checkpoint, net_.sim().now() - start);
  co_return true;
}

void StoreServer::on_crash(Topology::CrashKind kind) {
  if (kind != Topology::CrashKind::kAmnesia) return;
  metrics_.add(kMetrics.server_amnesia_crashes);
  ++epoch_;
  serving_ = false;
  checkpoint_timer_.cancel();
  checkpoint_armed_ = false;
  // Queued admission waiters resume and fail their epoch checks; tickets
  // held by suspended handlers go stale (generation bump) so the fresh slot
  // accounting stays exact.
  admission_.reset();

  // Capture the pre-crash membership of primary fragments first: the
  // ground-truth mutation sink must learn what the crash un-did. This must
  // precede the disk's crash lottery — a block-backed fragment materializes
  // through extents whose (pending, unsynced) write-backs the lottery may
  // drop, after which the in-memory bucket table dangles until the engine
  // wipe below.
  const std::vector<CollectionId> ids = hosted_ids_sorted();
  std::vector<std::vector<ObjectRef>> pre_members(ids.size());
  std::vector<std::uint64_t> pre_incarnation(ids.size());
  std::vector<char> pre_retired(ids.size(), 0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Hosted& entry = *collections_.at(ids[i]);
    // Tombstones of migrated-away fragments are control-plane state kept
    // across the crash (the directory never points here again); their stale
    // member list is inert and excluded from the ground-truth diff below.
    pre_retired[i] = entry.retired ? 1 : 0;
    if (entry.retired) continue;
    if (!entry.primary.valid() && sink_ != nullptr) {
      // Only the ground-truth diff below needs this; with no sink, skip the
      // (block-backed: full-materialize) capture.
      pre_members[i] = entry.members();
    }
    pre_incarnation[i] = entry.state.incarnation();
  }

  // How many appended-but-unsynced records the crash lottery will decide on.
  const std::uint64_t next_before = disk_.log_next_index(kWalFile);
  disk_.crash();
  wal_.on_crash();
  const std::uint64_t next_after = disk_.log_next_index(kWalFile);

  // Wipe volatile state in place (in-flight handlers hold Hosted&; they
  // observe the epoch bump and abandon their work).
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Hosted& entry = *collections_.at(ids[i]);
    if (entry.retired) continue;
    entry.handoff_target = NodeId::invalid();
    entry.frozen_by = 0;
    entry.lease_timer.cancel();
    entry.unfrozen->open();  // waiters resume, fail on the epoch check
    entry.pin_count = 0;
    entry.deferred_removes.clear();
    if (entry.orset != nullptr) {
      // Amnesia: the CRDT state, the outbound op log, and every pull cursor
      // are volatile. The checkpoint image plus the WAL tail (reconstruct
      // below) rebuild the set; the reset cursors make the first
      // post-recovery pulls full-state joins, which also re-cover context
      // a join merged in since the last checkpoint (join merges peers'
      // contexts wholesale but WALs only the *effective* ops).
      *entry.orset = crdt::OrSet{ids[i]};
      entry.orset_log.reset(0);
      entry.orset_cursors.clear();
    }
    entry.state.wipe_volatile();
  }
  // The engine's cache, bucket tables and allocators are volatile too; its
  // wipe also starts recovery-read accounting for the replay faults below.
  if (engine_ != nullptr) engine_->wipe();

  // Reconstruct the durable image immediately (zero simulated time), so
  // ground-truth observers see exactly the post-recovery state throughout
  // the outage; recover() charges the clock at restart. Replayed ops
  // re-record through the op observer — suspend WAL appends meanwhile.
  wal_suspended_ = true;
  plan_ = reconstruct_from_disk();
  plan_.records_lost = next_before - next_after;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Hosted& entry = *collections_.at(ids[i]);
    if (entry.primary.valid() || entry.retired || pre_retired[i]) continue;
    // A recovered primary starts a fresh op-sequence stream: ops it lost may
    // already have escaped to replicas and reader caches, so sequence
    // numbers it reissues must not collide with them. Bumping the
    // *pre-crash* incarnation (not the durable one) is equivalent to the
    // persist-the-epoch-before-first-use discipline — see DESIGN.md.
    entry.state.set_incarnation(pre_incarnation[i] + 1);
    if (entry.orset != nullptr) {
      // Fresh dot namespace: the replica forgot how many dots it minted, so
      // it must never mint under the old origin again (make_origin salts
      // with the bumped incarnation). Peers see the incarnation change and
      // full-state resync their cursors.
      entry.orset->set_origin(
          crdt::make_origin(node_.raw(), entry.state.incarnation()));
    }
  }
  wal_suspended_ = false;

  // Ground truth: the crash silently un-did every non-durable effective
  // mutation (and resurrected members whose removal was not durable). Emit
  // compensating events so the membership timeline matches reality.
  if (sink_ != nullptr) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Hosted& entry = *collections_.at(ids[i]);
      // A fragment that was (or turned out, via the WAL's kMigrationDone,
      // to be) migrated away did not lose its members to the crash — they
      // live at the new home. No compensating events.
      if (entry.primary.valid() || entry.retired || pre_retired[i]) continue;
      std::vector<ObjectRef> before = pre_members[i];
      std::vector<ObjectRef> after = entry.members();
      std::sort(before.begin(), before.end());
      std::sort(after.begin(), after.end());
      std::vector<ObjectRef> lost;
      std::set_difference(before.begin(), before.end(), after.begin(),
                          after.end(), std::back_inserter(lost));
      std::vector<ObjectRef> resurrected;
      std::set_difference(after.begin(), after.end(), before.begin(),
                          before.end(), std::back_inserter(resurrected));
      for (const ObjectRef ref : lost) {
        sink_->on_mutation(ids[i], CollectionOp::Kind::kRemove, ref);
      }
      for (const ObjectRef ref : resurrected) {
        sink_->on_mutation(ids[i], CollectionOp::Kind::kAdd, ref);
      }
    }
  }
}

StoreServer::RecoveryPlan StoreServer::reconstruct_from_disk() {
  RecoveryPlan plan;
  if (const auto bytes = disk_.peek_file(kCheckpointFile)) {
    plan.checkpoint_bytes = bytes->size();
    if (const auto image = wal::decode_checkpoint(*bytes)) {
      for (const wal::CollectionImage& coll : image->collections) {
        const auto it = collections_.find(CollectionId{coll.collection});
        if (it == collections_.end() || it->second->retired) continue;
        std::vector<ObjectRef> members;
        members.reserve(coll.members.size());
        for (const auto& [object, home] : coll.members) {
          members.emplace_back(ObjectId{object}, NodeId{home});
        }
        it->second->state.restore(std::move(members), coll.version,
                                  coll.last_seq, coll.applied_seq,
                                  coll.incarnation);
      }
      // An OR-Set fragment is its dot context plus its live dots: joining
      // the wiped set with that pair rebuilds it, and the WAL tail below
      // replays on top.
      for (const wal::OrSetImage& orset : image->orsets) {
        const auto it = collections_.find(CollectionId{orset.collection});
        if (it == collections_.end() || it->second->retired ||
            it->second->orset == nullptr) {
          continue;
        }
        (void)join_image(*it->second->orset, orset);
      }
    }
  }

  // Block-backed fragments reattach from their superblocks: counters from
  // the proto image, members left on disk. The WAL replay below faults in
  // only the buckets its records touch — recovery cost tracks the dirty
  // set, not the collection size.
  if (engine_ != nullptr) {
    for (const CollectionId id : hosted_ids_sorted()) {
      Hosted& entry = *collections_.at(id);
      if (entry.backing == nullptr || entry.retired) continue;
      if (const auto proto = engine_->reconstruct(entry.backing->raw_id())) {
        entry.state.restore_counters(proto->version, proto->last_seq,
                                     proto->applied_seq, proto->incarnation);
      }
    }
  }

  // A view into the disk, not a copy: WAL appends are suspended while the
  // image is rebuilt, so the log does not change under the replay.
  const SimDisk::LogContents log = disk_.peek_log(kWalFile);
  if (log.torn) ++plan.torn_tails;
  // Replay each fragment's contiguous tail on top of its checkpoint; stop a
  // fragment's replay at the first gap (e.g. records straddling a replica
  // snapshot install that never reached a checkpoint — anti-entropy refills
  // that stretch).
  std::unordered_map<std::uint64_t, bool> stopped;
  for (const std::string& bytes : log.records) {
    plan.wal_bytes += bytes.size();
    const auto rec = wal::decode_record(bytes);
    if (!rec) {  // corrupt mid-log record: trust nothing after it
      ++plan.torn_tails;
      break;
    }
    if (rec->kind == wal::WalRecord::kMigrationBegin) {
      continue;  // begin without done: the fragment stays the live home
    }
    if (rec->kind == wal::WalRecord::kMigrationDone) {
      // Authority durably transferred before the crash: tombstone the
      // fragment even though an older checkpoint (restored above) still
      // contains it. `seq` of a done record carries the directory epoch.
      const auto done_it = collections_.find(CollectionId{rec->collection});
      if (done_it != collections_.end() && !done_it->second->retired) {
        done_it->second->retired = true;
        done_it->second->retired_epoch = rec->seq;
        done_it->second->handoff_target = NodeId::invalid();
        done_it->second->state.wipe_volatile();
      }
      continue;
    }
    if (rec->kind == wal::WalRecord::kOrSetInsert ||
        rec->kind == wal::WalRecord::kOrSetKill) {
      const auto orset_it = collections_.find(CollectionId{rec->collection});
      if (orset_it == collections_.end() || orset_it->second->retired ||
          orset_it->second->orset == nullptr) {
        continue;
      }
      // Dot ops are idempotent and order-insensitive, and dots are globally
      // unique across incarnations (the origin is incarnation-salted), so
      // the tail replays unconditionally on top of the image — no
      // contiguity or incarnation gating like the sequenced streams below.
      // The outbound log is NOT rebuilt: peers detect the incarnation
      // change and full-state resync instead of chasing replayed seqs.
      const crdt::DotOp op{rec->kind == wal::WalRecord::kOrSetKill
                               ? crdt::DotOp::Kind::kKill
                               : crdt::DotOp::Kind::kInsert,
                           ObjectRef{ObjectId{rec->object}, NodeId{rec->home}},
                           crdt::Dot{rec->origin, rec->seq}};
      if (orset_it->second->orset->apply(op)) ++plan.ops_replayed;
      continue;
    }
    if (stopped[rec->collection]) continue;
    const auto it = collections_.find(CollectionId{rec->collection});
    if (it == collections_.end() || it->second->retired) continue;
    CollectionState& state = it->second->state;
    if (rec->incarnation != state.incarnation() ||
        rec->seq <= state.last_seq()) {
      continue;  // another stream, or already inside the checkpoint
    }
    if (rec->seq != state.last_seq() + 1) {
      stopped[rec->collection] = true;
      continue;
    }
    state.replay(to_collection_op(*rec));
    ++plan.ops_replayed;
  }
  return plan;
}

void StoreServer::on_restart(Topology::CrashKind kind) {
  (void)kind;
  if (serving_) return;  // transient outage: memory intact, nothing to do
  net_.sim().spawn(recover(epoch_));
}

Task<void> StoreServer::recover(std::uint64_t epoch) {
  const SimTime start = net_.sim().now();
  // The in-memory image was already reconstructed at crash time (so ground
  // truth stayed observable); what recovery owes the clock is the durable
  // reads it is notionally doing now.
  co_await disk_.read_file(kCheckpointFile);
  if (epoch != epoch_) co_return;  // crashed again mid-recovery
  co_await disk_.read_log(kWalFile);
  if (epoch != epoch_) co_return;
  if (engine_ != nullptr) {
    // Superblock + root + replay-faulted leaves, charged as one read.
    co_await engine_->charge_recovery_reads();
    if (epoch != epoch_) co_return;
  }
  // Persist the incarnation bump (and fold the replayed tail away) before
  // the first post-recovery op can escape.
  const bool ok = co_await write_checkpoint(epoch);
  if (!ok || epoch != epoch_) co_return;
  serving_ = true;
  metrics_.add(kMetrics.wal_recoveries);
  metrics_.record(kMetrics.wal_recovery, net_.sim().now() - start);
  metrics_.add(kMetrics.wal_ops_replayed, plan_.ops_replayed);
  metrics_.add(kMetrics.wal_records_lost, plan_.records_lost);
  metrics_.add(kMetrics.wal_torn_tails_detected, plan_.torn_tails);
}

}  // namespace weakset
