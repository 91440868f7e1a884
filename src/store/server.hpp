#pragma once

// StoreServer: the repository server process on one node.
//
// Hosts object payloads (the node's "disk") and collection fragments, either
// as the fragment primary or as a replica converging via pull-based
// anti-entropy. Exposes the store protocol over RPC and implements the
// freeze lock that the strong weak-set semantics (Figures 3/4) need: "typical
// implementations would use locks to synchronize access to the set and its
// elements" (section 3.1). Freezes carry a lease so that a crashed or
// partitioned lock holder cannot block mutators forever.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "crdt/orset.hpp"
#include "net/rpc.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "block/block_engine.hpp"
#include "store/admission.hpp"
#include "store/block_backing.hpp"
#include "store/collection.hpp"
#include "store/object_store.hpp"
#include "wal/sim_disk.hpp"
#include "wal/wal.hpp"

namespace weakset {

/// Receives every *effective* primary membership mutation, with ground-truth
/// timing. The spec layer's MembershipTimeline is fed through this hook.
class MutationSink {
 public:
  virtual ~MutationSink() = default;
  virtual void on_mutation(CollectionId id, CollectionOp::Kind kind,
                           ObjectRef ref) = 0;
};

/// Per-server durability model (DESIGN.md decision 11): a simulated local
/// disk holding a write-ahead log of applied membership ops plus periodic
/// whole-server checkpoints. Every server has one. Object payloads already
/// live "on disk" (the read/write latencies of StoreServerOptions model that
/// device) and are not part of this; what the WAL protects is the volatile
/// fragment state an amnesia crash (Topology::CrashKind::kAmnesia) would
/// otherwise erase.
struct DurabilityOptions {
  /// Strict commits: membership mutations ack only once their WAL record is
  /// durable (group commit). Off by default — the historical asynchronous
  /// behaviour, which keeps ack latencies (and every pre-existing baseline)
  /// unchanged while still making recovery possible.
  bool durable_acks = false;
  /// Group-commit window: the first append after a clean flush waits this
  /// long before the fsync, batching later appends into it.
  Duration fsync_interval = Duration::millis(2);
  /// Delay between a mutation and the checkpoint write it arms. Longer
  /// intervals mean fewer checkpoint writes but a longer WAL tail to replay
  /// (and re-fsync) at recovery — the E14 tradeoff.
  Duration checkpoint_interval = Duration::millis(250);
  /// Block storage engine under the WAL (DESIGN.md decision 17): paged
  /// member buckets, LRU cache, incremental shadow-paged checkpoints,
  /// background compaction. Default-off — the whole-file checkpoint path
  /// (and every committed baseline) is byte-identical until enabled.
  block::BlockStorageOptions block;
};

struct StoreServerOptions {
  /// Serialisation/transfer cost per membership entry shipped in a reply —
  /// a member of a full snapshot or an op of a delta. This is what makes
  /// whole-set reads scale with set size and delta reads scale with change
  /// rate (precedent: the per-object increment of a store.fetch_batch).
  Duration membership_entry_cost = Duration::micros(25);
  /// Membership ops retained per fragment (primaries and replicas) for
  /// incremental reads and anti-entropy; a reader whose cursor has fallen
  /// off this window is resynced with a full snapshot. 0 = unbounded.
  std::size_t membership_log_cap = 1024;
  /// How long a freeze lives without being released (crash safety).
  Duration freeze_lease = Duration::seconds(10);
  /// Replica anti-entropy period.
  Duration pull_interval = Duration::millis(50);
  /// Durable storage engine: WAL + checkpoints + amnesia recovery.
  DurabilityOptions durability;
  /// Admission control on the collection data path (DESIGN.md decision 15):
  /// bounded per-tenant queues in front of max_concurrency service slots,
  /// shed-or-reject with FailureKind::kOverloaded under overload. Disabled
  /// by default — the historical serve-everything model.
  AdmissionOptions admission;
  /// Telemetry sink: snapshot-vs-delta read counters, bytes-equivalent ship
  /// cost, anti-entropy activity. nullptr = the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
};

class StoreServer {
 public:
  /// In-memory membership operation cost (fixed part of every membership
  /// RPC, and of each migration step that touches a fragment).
  static constexpr Duration kMembershipLatency = Duration::micros(100);

  StoreServer(RpcNetwork& net, NodeId node, StoreServerOptions options = {});
  StoreServer(const StoreServer&) = delete;
  StoreServer& operator=(const StoreServer&) = delete;

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] ObjectStore& objects() noexcept { return objects_; }
  [[nodiscard]] const StoreServerOptions& options() const noexcept {
    return options_;
  }

  /// Starts hosting `id` as a fragment primary.
  CollectionState& host_primary(CollectionId id);

  /// Starts hosting `id` as a replica of the fragment primary at `primary`.
  /// Spawns the fragment's pull daemon, which pulls forever at
  /// pull_interval.
  CollectionState& host_replica(CollectionId id, NodeId primary);

  // -- OR-Set multi-master mode (src/crdt, DESIGN.md decision 16) ----------

  /// Starts hosting `id` as an OR-Set multi-master fragment: this node
  /// accepts membership writes locally, tags them with dots, and converges
  /// with its peers via all-pairs dot-op anti-entropy (orset.pull). Spawns
  /// the fragment's pull daemon.
  crdt::OrSet& host_orset(CollectionId id);

  /// Registers another host of OR-Set fragment `id` as an anti-entropy peer.
  void add_orset_peer(CollectionId id, NodeId peer);

  /// The locally hosted OR-Set state; nullptr if `id` is not hosted here in
  /// OR-Set mode. Spec-layer ground truth reads converged members from this.
  [[nodiscard]] const crdt::OrSet* orset_state(CollectionId id) const;

  /// Setup-time: inserts `ref` into the local OR-Set directly, bypassing
  /// RPC (workload seeding). Returns true if membership changed.
  bool seed_orset_member(CollectionId id, ObjectRef ref);

  /// The locally hosted fragment state (primary or replica); nullptr if this
  /// node does not host `id`.
  [[nodiscard]] CollectionState* collection(CollectionId id);
  [[nodiscard]] const CollectionState* collection(CollectionId id) const;

  // -- live fragment migration (src/placement, DESIGN.md decision 12) ------

  /// Cumulative data-path demand on one hosted fragment, for the load-aware
  /// rebalancer. reads_by_node is (client node raw id, reads) in ascending
  /// node order — deterministic iteration for policy decisions.
  struct FragmentLoad {
    std::uint64_t reads = 0;
    std::uint64_t ops = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reads_by_node;
  };

  /// True if this node hosts `id` as a live (non-retired) fragment primary.
  [[nodiscard]] bool hosts_primary(CollectionId id) const;

  /// True if `id` was migrated away from this node (tombstoned entry).
  [[nodiscard]] bool is_retired(CollectionId id) const;

  /// Load counters of a hosted fragment (zeroes if not hosted).
  [[nodiscard]] FragmentLoad fragment_load(CollectionId id) const;

  /// True while starting a migration of `id` away from this node would break
  /// an in-progress protocol on it: frozen, pinned (deferred removals
  /// pending), already in a handoff window, or OR-Set-hosted. Lock state does
  /// not transfer with a fragment, so the migration engine refuses to start
  /// instead.
  [[nodiscard]] bool migration_blocked(CollectionId id) const;

  /// Synchronous point-in-time image of a hosted fragment, in the durable
  /// checkpoint codec — the unit the migration engine streams.
  [[nodiscard]] wal::CollectionImage export_image(CollectionId id) const;

  /// Durably marks a migration as attempted (WAL kMigrationBegin). A begin
  /// without a matching done means the migration never committed; recovery
  /// restores the fragment as the live single home.
  void log_migration_begin(CollectionId id, NodeId target);

  /// Opens the dual-home handoff window: every committed membership op on
  /// `id` is forwarded to `target` (mig.apply) before it is acked.
  void set_handoff(CollectionId id, NodeId target);

  /// Closes the handoff window without committing (migration abort).
  void clear_handoff(CollectionId id);

  /// Migration commit, source side: tombstones the fragment at
  /// `directory_epoch` (the epoch the directory was bumped to). The entry is
  /// never erased — in-flight handlers hold references — and every data-path
  /// RPC on it now answers kWrongEpoch carrying `directory_epoch` so stale
  /// clients self-heal. Appends WAL kMigrationDone: recovery drops the
  /// fragment even if an older checkpoint still contains it.
  void retire_collection(CollectionId id, NodeId target,
                         std::uint64_t directory_epoch);

  /// Migration commit, target side: installs the `staged` copy as a hosted
  /// fragment primary continuing the source's op-sequence stream (members,
  /// cursors and incarnation verbatim; its log stays behind, so delta
  /// readers resync once). Reuses (and un-retires) a tombstoned entry when
  /// the fragment migrates back. The caller persists the adoption with
  /// checkpoint_now() before the source retires.
  CollectionState& adopt_primary(CollectionId id,
                                 const CollectionState& staged);

  /// Writes a checkpoint immediately (true on success). The migration engine
  /// calls this on the target so the adopted fragment is durable before the
  /// source gives up authority.
  Task<bool> checkpoint_now();

  /// Asks background daemons (anti-entropy pullers) to exit at their next
  /// wakeup, letting the simulator drain. The server keeps serving RPCs.
  void stop_daemons() noexcept { stopping_ = true; }

  /// Installs the mutation hook (nullptr to remove). Not owned.
  void set_mutation_sink(MutationSink* sink) noexcept { sink_ = sink; }

  // -- crash / recovery (DESIGN.md decision 11) ----------------------------

  /// Liveness notification: the node just crashed. kTransient keeps all
  /// state (the historical behaviour); kAmnesia wipes volatile state and
  /// synchronously reconstructs the durable image, so in-memory state equals
  /// what recovery will serve. The Repository wires this to the Topology's
  /// liveness listeners.
  void on_crash(Topology::CrashKind kind);

  /// Liveness notification: the node came back. After an amnesia crash this
  /// starts the recovery process (checkpoint + WAL read costs, then a fresh
  /// checkpoint persisting the incarnation bump); RPCs are refused until it
  /// completes.
  void on_restart(Topology::CrashKind kind);

  /// False while recovering from an amnesia crash (RPC handlers refuse).
  [[nodiscard]] bool serving() const noexcept { return serving_; }

  // -- admission control (DESIGN.md decision 15) ---------------------------

  /// Tags collection `id` as belonging to `tenant` for admission-queue
  /// accounting. Untagged collections share tenant 0.
  void set_tenant(CollectionId id, std::uint64_t tenant) {
    tenants_[id] = tenant;
  }

  /// The admission tenant of `id` (0 if untagged).
  [[nodiscard]] std::uint64_t tenant_of(CollectionId id) const {
    const auto it = tenants_.find(id);
    return it == tenants_.end() ? 0 : it->second;
  }

  /// The admission controller (introspection for tests and the load engine).
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }

  /// The block storage engine; nullptr unless durability.block.enabled.
  [[nodiscard]] block::BlockEngine* block_engine() noexcept {
    return engine_.get();
  }

 private:
  struct Hosted {
    explicit Hosted(CollectionId id) : state(id) {}
    CollectionState state;
    NodeId primary;  // invalid() for primaries
    // Freeze lock. token 0 = unfrozen.
    std::uint64_t frozen_by = 0;
    std::unique_ptr<Gate> unfrozen;       // open while not frozen
    Simulator::TimerToken lease_timer;    // auto-release
    // Grow-only pinning (section 3.3 ghost-delete variant): while pinned,
    // removals are deferred and applied at the last unpin.
    std::size_t pin_count = 0;
    std::vector<ObjectRef> deferred_removes;
    // Live migration (DESIGN.md decision 12). While handoff_target is valid,
    // committed membership ops are dual-applied there before acking. Once
    // retired, the entry is a tombstone: data-path RPCs answer kWrongEpoch
    // carrying retired_epoch. Retirement survives amnesia crashes (mirrored
    // by the WAL kMigrationDone record; even when that record is lost in the
    // torn tail, the directory — bumped before the commit acked — never
    // points here again, so the tombstone is kept conservatively).
    NodeId handoff_target = NodeId::invalid();
    bool retired = false;
    std::uint64_t retired_epoch = 0;
    // Data-path demand counters for the load-aware rebalancer. Plain
    // integers (no metrics registry, no RNG): maintaining them never
    // perturbs baseline runs. Keyed by raw node id (ordered → deterministic
    // policy input).
    std::uint64_t reads = 0;
    std::uint64_t ops = 0;
    std::map<std::uint64_t, std::uint64_t> reads_by_node;
    // Whom the pull daemon pulls: the primary of a replica, or every other
    // host of an OR-Set fragment. Only ever grows.
    std::vector<NodeId> peers;
    // OR-Set multi-master mode (DESIGN.md decision 16). Non-null marks the
    // entry as CRDT-hosted: membership RPCs mutate the OR-Set locally, the
    // outbound log retains this host's *local* dot ops (bounded by
    // membership_log_cap), and the pull daemon drags every peer's log over
    // with per-peer cursors. The entry's CollectionState is dormant except
    // for its incarnation, which doubles as the dot-namespace salt
    // (make_origin) and the log-stream id peers use to detect an amnesia
    // restart.
    std::unique_ptr<crdt::OrSet> orset;
    OpLog<crdt::DotOp> orset_log;
    struct OrSetCursor {
      std::uint64_t after_seq = 0;
      std::uint64_t incarnation = 0;
    };
    std::map<NodeId, OrSetCursor> orset_cursors;
    mutable std::vector<ObjectRef> orset_members;  // members() buffer
    // Block storage engine mode (DESIGN.md decision 17): non-null routes
    // this fragment's members through the engine's paged buckets.
    std::unique_ptr<BlockBacking> backing;

    // Mode-neutral membership: the OR-Set when CRDT-hosted, else `state`.
    [[nodiscard]] std::size_t size() const {
      return orset != nullptr ? orset->size() : state.size();
    }
    [[nodiscard]] std::uint64_t version() const {
      return orset != nullptr ? orset->version() : state.version();
    }
    [[nodiscard]] bool contains(ObjectRef ref) const {
      return orset != nullptr ? orset->contains(ref) : state.contains(ref);
    }
    /// Valid until the next call (an OR-Set materialises into a buffer).
    [[nodiscard]] const std::vector<ObjectRef>& members() const {
      if (orset == nullptr) return state.members();
      orset_members = orset->members();
      return orset_members;
    }
  };

  /// What enter() hands a collection handler: the live (non-tombstone)
  /// entry, the crash epoch its later co_awaits fence on, and the admission
  /// slot, held until the handler returns.
  struct Entered {
    Entered(Hosted& entry, std::uint64_t epoch, AdmissionTicket ticket)
        : entry(entry), epoch(epoch), ticket(std::move(ticket)) {}
    Hosted& entry;
    std::uint64_t epoch;
    AdmissionTicket ticket;
  };

  /// What crash-time reconstruction found; recovery reports it as metrics
  /// once the (timed) restart-side recovery completes.
  struct RecoveryPlan {
    std::uint64_t ops_replayed = 0;
    std::uint64_t records_lost = 0;
    std::uint64_t torn_tails = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t wal_bytes = 0;
  };

  void register_handlers();
  /// Every collection handler's prologue: refuses while recovering, takes an
  /// admission slot when `admit` (and admission is on), charges
  /// kMembershipLatency, fences on a crash meanwhile, then resolves `id` —
  /// unhosted is kNotFound, a tombstone kWrongEpoch.
  Task<Result<Entered>> enter(CollectionId id, bool admit);
  /// The transfer time of `entries` membership entries, counted into
  /// ship_cost_ns. The caller waits it out, then fences on its crash epoch.
  [[nodiscard]] Duration ship(std::size_t entries);
  /// A full-membership DeltaReply of `entry`, after charging its ship cost.
  Task<Result<Payload>> reply_members(const Hosted& entry,
                                      std::uint64_t epoch);
  /// A DeltaReply of the ops in `state`'s log past `since_seq` (which the
  /// log must cover), counted into `shipped` and charged before it goes.
  Task<Result<Payload>> reply_ops(const CollectionState& state,
                                  std::uint64_t since_seq, std::uint64_t epoch,
                                  obs::CounterId shipped);
  Hosted& hosted(CollectionId id);
  /// The hosted entry (tombstones included); nullptr if never hosted.
  [[nodiscard]] Hosted* find_entry(CollectionId id);
  /// Timeout of one anti-entropy pull (both modes). A partition that cuts
  /// the link while a pull is in flight drops the message, and fast-fail
  /// only covers dead-at-send paths: without this bound the daemon would sit
  /// out the RPC layer's default timeout. 4x the interval leaves room for
  /// snapshot ship cost.
  [[nodiscard]] Duration pull_timeout() const {
    return options_.pull_interval * 4;
  }
  /// A hosted fragment's anti-entropy daemon: every pull_interval it pulls
  /// each of the entry's peers once, in order.
  Task<void> pull_loop(CollectionId id);
  /// One coll.pull of a replica from its primary: applies the ops past the
  /// replica's cursor, or installs the snapshot the primary resyncs it with.
  Task<void> pull_ops(Hosted& entry, NodeId primary);
  /// One orset.pull from an OR-Set peer: applies its dot ops past this
  /// host's cursor on it, or joins its full state once the cursor expired.
  Task<void> pull_dots(Hosted& entry, NodeId peer);
  /// WAL-appends one applied dot op and arms the checkpoint (no-op during
  /// recovery replay).
  void orset_wal_append(Hosted& entry, const crdt::DotOp& op);
  /// Applies one local membership write in the fragment's mode (dots minted
  /// or killed and logged for OR-Set, a sequenced op otherwise); true if
  /// membership changed.
  bool apply_local(Hosted& entry, bool is_add, ObjectRef ref);
  void release_freeze(Hosted& entry);

  /// Hooks the fragment's op log into the WAL.
  void install_wal_observer(Hosted& entry);
  /// Routes the fragment's members through the block engine (no-op unless
  /// the engine is on or the fragment is OR-Set-hosted).
  void attach_backing(CollectionId id, Hosted& entry);
  /// Faults the buckets a membership op will touch, charging block reads
  /// (no-op unless the fragment is block-backed).
  Task<void> fault_member(Hosted& entry, ObjectRef ref);
  Task<void> fault_ops(Hosted& entry, const std::vector<CollectionOp>& ops);
  /// Background compaction daemon (spawned when the engine is on).
  Task<void> compaction_loop();
  /// Arms the (cancellable) checkpoint timer if it is not already armed.
  void arm_checkpoint();
  /// Snapshots every hosted fragment at one instant, writes the checkpoint
  /// atomically, and truncates the WAL prefix it covers. False if a crash
  /// interrupted (durable state untouched).
  Task<bool> write_checkpoint(std::uint64_t epoch);
  /// Fire-and-forget wrapper for the checkpoint timer.
  Task<void> checkpoint_task(std::uint64_t epoch);
  /// Restart-side recovery: charges the durable read costs, persists the
  /// incarnation bump with a fresh checkpoint, then reopens for RPCs.
  Task<void> recover(std::uint64_t epoch);
  /// Crash-side reconstruction: rebuilds every fragment from the durable
  /// checkpoint + WAL tail (zero simulated time — the clock is charged by
  /// recover() at restart). Returns what it found.
  RecoveryPlan reconstruct_from_disk();
  [[nodiscard]] std::vector<CollectionId> hosted_ids_sorted() const;

  // Handler bodies. `from` is the calling node (load accounting).
  Task<Result<Payload>> handle_fetch(NodeId from, Payload request);
  Task<Result<Payload>> handle_fetch_batch(NodeId from, Payload request);
  Task<Result<Payload>> handle_put(NodeId from, Payload request);
  Task<Result<Payload>> handle_snapshot(NodeId from, Payload request);
  Task<Result<Payload>> handle_read_delta(NodeId from, Payload request);
  Task<Result<Payload>> handle_membership(NodeId from, Payload request);
  Task<Result<Payload>> handle_freeze(NodeId from, Payload request);
  Task<Result<Payload>> handle_pin(NodeId from, Payload request);
  Task<Result<Payload>> handle_pull(NodeId from, Payload request);
  Task<Result<Payload>> handle_orset_pull(NodeId from, Payload request);

  RpcNetwork& net_;
  NodeId node_;
  StoreServerOptions options_;
  obs::MetricsRegistry& metrics_;
  AdmissionController admission_;
  /// Collection → admission tenant (absent = tenant 0).
  std::unordered_map<CollectionId, std::uint64_t> tenants_;
  ObjectStore objects_;
  /// Entries are never erased (a migrated-away fragment stays as a
  /// tombstone), so a Hosted& stays valid across every co_await; only its
  /// contents change under a suspension (crash wipe, retirement).
  std::unordered_map<CollectionId, std::unique_ptr<Hosted>> collections_;
  bool stopping_ = false;
  MutationSink* sink_ = nullptr;

  // Durability (DESIGN.md decision 11).
  SimDisk disk_;
  wal::WalWriter wal_;
  // Block storage engine (DESIGN.md decision 17); null unless enabled.
  std::unique_ptr<block::BlockEngine> engine_;
  /// False from an amnesia crash until recovery completes; handlers refuse.
  bool serving_ = true;
  /// Bumped on every amnesia wipe; coroutines suspended across the wipe
  /// compare epochs and abandon their work instead of touching fresh state.
  std::uint64_t epoch_ = 0;
  /// Set during recovery replay so re-logged ops do not re-append.
  bool wal_suspended_ = false;
  bool checkpoint_armed_ = false;
  Simulator::TimerToken checkpoint_timer_;
  /// WAL index of the most recent append (the durable_acks wait cursor).
  std::uint64_t last_wal_index_ = 0;
  RecoveryPlan plan_;
};

}  // namespace weakset
