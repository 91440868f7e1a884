// Tests for the dynamic placement subsystem (DESIGN.md decision 12): the
// versioned directory (dir.lookup), live fragment migration (mig.*), crash
// recovery of interrupted migrations via the WAL begin/done markers, and
// the load-aware rebalancer policies.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "placement/directory.hpp"
#include "placement/migration.hpp"
#include "placement/rebalancer.hpp"
#include "sim/simulator.hpp"
#include "store/client.hpp"
#include "store/repository.hpp"

namespace weakset {
namespace {

class PlacementTest : public ::testing::Test {
 protected:
  PlacementTest() {
    client_node = topo.add_node("client");
    for (int i = 0; i < 3; ++i) {
      servers.push_back(topo.add_node("s" + std::to_string(i)));
    }
    topo.connect_full_mesh(Duration::millis(5));
  }

  ~PlacementTest() override {
    if (rebalancer) rebalancer->stop();
    repo.stop_all_daemons();
    sim.run();  // drain daemons so coroutine frames unwind
  }

  /// Starts a store server + migration engine on every server node and the
  /// directory service on the last one.
  void build(StoreServerOptions options = {},
             placement::MigrationEngineOptions engine_options = {}) {
    options.metrics = &reg;
    engine_options.metrics = &reg;
    for (const NodeId node : servers) {
      repo.add_server(node, options);
      engines.push_back(std::make_unique<placement::MigrationEngine>(
          repo, node, engine_options));
    }
    placement::DirectoryServiceOptions dir_options;
    dir_options.metrics = &reg;
    directory = std::make_unique<placement::DirectoryService>(
        repo, servers.back(), dir_options);
  }

  placement::DirectoryClient& make_dir_client(NodeId node) {
    placement::DirectoryClientOptions options;
    options.metrics = &reg;
    dir_clients.push_back(std::make_unique<placement::DirectoryClient>(
        repo, node, directory->node(), options));
    return *dir_clients.back();
  }

  /// Members added through the RPC path (so durable stores WAL them).
  std::vector<ObjectRef> populate(CollectionId coll, NodeId home, int count) {
    RepositoryClient client{repo, client_node};
    std::vector<ObjectRef> refs;
    for (int i = 0; i < count; ++i) {
      refs.push_back(repo.create_object(home, "p" + std::to_string(i)));
      EXPECT_TRUE(run_task(sim, client.add(coll, refs.back())).value_or(false));
    }
    return refs;
  }

  void sleep_for(Duration d) {
    run_task(sim, [](Simulator& s, Duration dd) -> Task<void> {
      co_await s.delay(dd);
    }(sim, d));
  }

  Task<Result<std::uint64_t>> migrate_rpc(CollectionId coll,
                                          std::size_t fragment,
                                          NodeId source, NodeId target) {
    auto reply = co_await net.call_typed<placement::msg::MigrateReply>(
        client_node, source, "mig.execute",
        placement::msg::MigrateRequest{coll, fragment, target},
        Duration::seconds(30));
    if (!reply) co_return reply.error();
    co_return reply.value().epoch();
  }

  obs::MetricsRegistry reg;
  Simulator sim;
  Topology topo;
  NodeId client_node;
  std::vector<NodeId> servers;
  RpcNetwork net{sim, topo, Rng{7}};
  Repository repo{net};
  std::vector<std::unique_ptr<placement::MigrationEngine>> engines;
  std::unique_ptr<placement::DirectoryService> directory;
  std::vector<std::unique_ptr<placement::DirectoryClient>> dir_clients;
  std::unique_ptr<placement::Rebalancer> rebalancer;
};

// ---------------------------------------------------------------------------
// Live migration

TEST_F(PlacementTest, LiveMigrationMovesAFragmentEndToEnd) {
  build();
  const CollectionId coll = repo.create_collection({servers[0]});
  const std::vector<ObjectRef> refs = populate(coll, servers[2], 8);
  std::uint64_t ground_truth_events = 0;
  repo.add_mutation_observer(
      [&ground_truth_events](CollectionId, CollectionOp::Kind, ObjectRef) {
        ++ground_truth_events;
      });

  const auto epoch =
      run_task(sim, migrate_rpc(coll, 0, servers[0], servers[1]));
  ASSERT_TRUE(epoch.has_value()) << to_string(epoch.error());
  EXPECT_EQ(epoch.value(), 2u);
  EXPECT_EQ(repo.meta(coll).epoch(), 2u);
  EXPECT_EQ(repo.meta(coll).fragments()[0].primary(), servers[1]);
  EXPECT_FALSE(repo.server_at(servers[0])->hosts_primary(coll));
  EXPECT_TRUE(repo.server_at(servers[0])->is_retired(coll));
  EXPECT_TRUE(repo.server_at(servers[1])->hosts_primary(coll));

  // The authoritative map already points at the new home: a plain client
  // reads the full membership there, and mutations land there too.
  RepositoryClient client{repo, client_node};
  const auto members = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), refs.size());
  const ObjectRef extra = repo.create_object(servers[2], "extra");
  EXPECT_TRUE(run_task(sim, client.add(coll, extra)).value_or(false));
  EXPECT_EQ(run_task(sim, client.total_size(coll)).value_or(0), 9u);
  // Migration replayed no mutation into the ground truth: only the add.
  EXPECT_EQ(ground_truth_events, 1u);
  EXPECT_EQ(reg.counter("placement.migrations_committed"), 1u);
  EXPECT_EQ(reg.counter("placement.fragments_adopted"), 1u);
  EXPECT_EQ(reg.counter("placement.fragments_retired"), 1u);
}

// The target side of a migration driven RPC by RPC: a staging of fragment
// `coll` (from `source`) holding a, b, c at cursor S (version 3), and the two
// ops the source's stream carries next — d added at S+1, a removed at S+2.
class PlacementStagingTest : public PlacementTest {
 protected:
  static constexpr std::uint64_t kS = 3;

  void SetUp() override {
    build();
    a = repo.create_object(servers[2], "a");
    b = repo.create_object(servers[2], "b");
    c = repo.create_object(servers[2], "c");
    d = repo.create_object(servers[2], "d");
    add_d = CollectionOp{CollectionOp::Kind::kAdd, d, kS + 1};
    remove_a = CollectionOp{CollectionOp::Kind::kRemove, a, kS + 2};
    coll = repo.create_collection({source});
    incarnation = repo.server_at(source)->collection(coll)->incarnation();
    ASSERT_TRUE(run_task(sim, net.call_typed<bool>(
                                  client_node, target, "mig.begin",
                                  placement::msg::MigBeginRequest{
                                      coll, source, incarnation}))
                    .has_value());
    const auto chunk = run_task(
        sim, net.call_typed<placement::msg::MigChunkReply>(
                 client_node, target, "mig.chunk",
                 placement::msg::MigChunkRequest{coll, {a, b, c},
                                                 /*final_chunk=*/true,
                                                 /*version=*/3, kS,
                                                 incarnation}));
    ASSERT_TRUE(chunk.has_value());
    ASSERT_EQ(chunk.value().staged(), 3u);
  }

  /// mig.ops or mig.apply of `ops`; resolves to the staging's ack cursor.
  Result<msg::HandoffApplyReply> send(const char* method,
                                      std::vector<CollectionOp> ops) {
    return run_task(sim, net.call_typed<msg::HandoffApplyReply>(
                             client_node, target, method,
                             msg::SyncRequest{coll, std::move(ops),
                                              incarnation}));
  }

  Result<placement::msg::MigFinishReply> finish(std::uint64_t expected) {
    return run_task(sim, net.call_typed<placement::msg::MigFinishReply>(
                             client_node, target, "mig.finish",
                             placement::msg::MigFinishRequest{coll, expected}));
  }

  /// Promotes at S+2 and checks the adopted primary: [a, b, c] + d, then
  /// a's removal swaps d into its slot.
  void expect_promoted_at_s_plus_2() {
    const auto promoted = finish(kS + 2);
    ASSERT_TRUE(promoted.has_value());
    EXPECT_TRUE(promoted.value().promoted());
    EXPECT_EQ(promoted.value().applied_seq(), kS + 2);
    ASSERT_TRUE(repo.server_at(target)->hosts_primary(coll));
    const CollectionState* adopted = repo.server_at(target)->collection(coll);
    ASSERT_NE(adopted, nullptr);
    EXPECT_EQ(adopted->members(), (std::vector<ObjectRef>{d, b, c}));
    EXPECT_EQ(adopted->version(), 5u);
    EXPECT_EQ(adopted->applied_seq(), kS + 2);
    EXPECT_EQ(adopted->last_seq(), kS + 2);
    EXPECT_EQ(adopted->incarnation(), incarnation);
  }

  const NodeId source = servers[0];
  const NodeId target = servers[1];
  ObjectRef a, b, c, d;
  CollectionOp add_d, remove_a;
  CollectionId coll;
  std::uint64_t incarnation = 0;
};

TEST_F(PlacementStagingTest, HoldsAnOvertakingForwardUntilItsGapFills) {
  // A dual-home forward (mig.apply) can overtake the catch-up batch
  // (mig.ops) carrying the op before it. The staging must hold the
  // forward, refuse to promote while the gap is open, and apply both in
  // order once the batch lands.
  const auto forwarded = send("mig.apply", {remove_a});
  ASSERT_TRUE(forwarded.has_value());
  EXPECT_EQ(forwarded.value().applied_seq(), kS);  // held

  const auto early = finish(kS + 2);
  ASSERT_TRUE(early.has_value());
  EXPECT_FALSE(early.value().promoted());  // S+1 is still missing
  EXPECT_EQ(early.value().applied_seq(), kS);
  EXPECT_FALSE(repo.server_at(target)->hosts_primary(coll));

  const auto batch = send("mig.ops", {add_d, remove_a});
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch.value().applied_seq(), kS + 2);
  expect_promoted_at_s_plus_2();
}

TEST_F(PlacementStagingTest, DrainsAHeldForwardBehindTheOpItWaitedFor) {
  // Forwards past the cut line are not re-shipped by mig.ops: a held
  // forward must apply as soon as the op before it arrives.
  ASSERT_TRUE(send("mig.apply", {remove_a}).has_value());
  const auto batch = send("mig.ops", {add_d});
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch.value().applied_seq(), kS + 2);
  expect_promoted_at_s_plus_2();
}

TEST_F(PlacementTest, StaleClientHealsWithExactlyOneRetryPerEpochBump) {
  build();
  const CollectionId coll = repo.create_collection({servers[0]});
  const std::vector<ObjectRef> refs = populate(coll, servers[2], 6);

  placement::DirectoryClient& dir_client = make_dir_client(client_node);
  ClientOptions options;
  options.directory = &dir_client;
  options.metrics = &reg;
  RepositoryClient client{repo, client_node, options};
  ASSERT_TRUE(run_task(sim, client.read_all(coll)).has_value());
  EXPECT_EQ(dir_client.cached_epoch(coll), 1u);
  EXPECT_EQ(reg.counter("store.client.wrong_epoch_retries"), 0u);

  // First bump: the fragment moves; the cached directory is now stale.
  ASSERT_TRUE(
      run_task(sim, migrate_rpc(coll, 0, servers[0], servers[1])).has_value());
  auto healed = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed.value().size(), refs.size());
  EXPECT_EQ(dir_client.cached_epoch(coll), 2u);
  EXPECT_EQ(reg.counter("store.client.wrong_epoch_retries"), 1u);
  EXPECT_EQ(reg.counter("placement.dir.lookups"), 1u);

  // Second bump: migrate back onto the tombstoned original home (the entry
  // is un-retired by adoption). Exactly one more retry, one more lookup.
  ASSERT_TRUE(
      run_task(sim, migrate_rpc(coll, 0, servers[1], servers[0])).has_value());
  healed = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed.value().size(), refs.size());
  EXPECT_EQ(dir_client.cached_epoch(coll), 3u);
  EXPECT_EQ(reg.counter("store.client.wrong_epoch_retries"), 2u);
  EXPECT_EQ(reg.counter("placement.dir.lookups"), 2u);

  // Mutations heal the same way.
  const ObjectRef extra = repo.create_object(servers[2], "extra");
  ASSERT_TRUE(
      run_task(sim, migrate_rpc(coll, 0, servers[0], servers[2])).has_value());
  EXPECT_TRUE(run_task(sim, client.add(coll, extra)).value_or(false));
  EXPECT_EQ(reg.counter("store.client.wrong_epoch_retries"), 3u);
  EXPECT_EQ(run_task(sim, client.total_size(coll)).value_or(0),
            refs.size() + 1);
}

TEST_F(PlacementTest, PooledBuffersStayCorrectAcrossWrongEpochRetries) {
  // Pool edge case (DESIGN.md decision 13): reply buffers recycle through
  // VectorPool across the server -> Payload -> client round trip. A
  // WrongEpoch rejection abandons one attempt mid-flight and retries on the
  // new home, so the same pooled vectors are acquired, dropped, and
  // re-acquired over and over. If a recycled buffer ever leaked stale
  // contents (clear() missing on some path) or were handed out twice, the
  // exact membership below would come back wrong or duplicated.
  build();
  const CollectionId coll = repo.create_collection({servers[0]});
  const std::vector<ObjectRef> refs = populate(coll, servers[2], 12);
  const std::set<ObjectRef> expected{refs.begin(), refs.end()};

  placement::DirectoryClient& dir_client = make_dir_client(client_node);
  ClientOptions options;
  options.directory = &dir_client;
  options.metrics = &reg;
  RepositoryClient client{repo, client_node, options};
  ASSERT_TRUE(run_task(sim, client.read_all(coll)).has_value());

  // Bounce the fragment around the ring; every read after a bump goes
  // through one WrongEpoch + retry and must return the exact member set.
  for (int cycle = 0; cycle < 6; ++cycle) {
    const NodeId source = servers[cycle % servers.size()];
    const NodeId target = servers[(cycle + 1) % servers.size()];
    ASSERT_TRUE(run_task(sim, migrate_rpc(coll, 0, source, target)).has_value())
        << "cycle " << cycle;
    const auto members = run_task(sim, client.read_all(coll));
    ASSERT_TRUE(members.has_value()) << "cycle " << cycle;
    const std::set<ObjectRef> got{members.value().begin(),
                                  members.value().end()};
    EXPECT_EQ(got.size(), members.value().size())
        << "duplicated members from a doubly-handed-out buffer, cycle "
        << cycle;
    EXPECT_EQ(got, expected) << "cycle " << cycle;
  }
  EXPECT_EQ(reg.counter("store.client.wrong_epoch_retries"), 6u);
}

TEST_F(PlacementTest, RefreshSkipsTheLookupWhenTheCacheIsCurrent) {
  build();
  const CollectionId coll = repo.create_collection({servers[0]});
  placement::DirectoryClient& dir_client = make_dir_client(client_node);
  EXPECT_EQ(dir_client.cached_epoch(coll), 1u);  // bootstrap, no RPC
  EXPECT_TRUE(run_task(sim, dir_client.refresh(coll, 1)));
  EXPECT_EQ(reg.counter("placement.dir.lookups"), 0u);
  // Hint 0 forces the round trip even when nothing changed.
  EXPECT_TRUE(run_task(sim, dir_client.refresh(coll, 0)));
  EXPECT_EQ(reg.counter("placement.dir.lookups"), 1u);
}

TEST_F(PlacementTest, QuorumReadHealsWithOneLookupAfterMigration) {
  // The retired home answers a quorum read with kWrongEpoch; the quorum
  // falls short and must report that failure, not a bare "quorum not
  // reached", so read_all and read_fragment heal like the other policies.
  build();
  const CollectionId coll = repo.create_collection({servers[0]});
  const std::vector<ObjectRef> refs = populate(coll, servers[2], 6);
  placement::DirectoryClient& dir_client = make_dir_client(client_node);
  ClientOptions options;
  options.read_policy = ReadPolicy::kQuorum;
  options.directory = &dir_client;
  options.metrics = &reg;
  RepositoryClient client{repo, client_node, options};
  ASSERT_TRUE(run_task(sim, client.read_fragment(coll, 0)).has_value());

  ASSERT_TRUE(
      run_task(sim, migrate_rpc(coll, 0, servers[0], servers[1])).has_value());
  const auto members = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(members.has_value()) << to_string(members.error());
  EXPECT_EQ(members.value().size(), refs.size());
  EXPECT_EQ(reg.counter("placement.dir.lookups"), 1u);
  EXPECT_EQ(dir_client.meta(coll).fragments()[0].primary(), servers[1]);

  ASSERT_TRUE(
      run_task(sim, migrate_rpc(coll, 0, servers[1], servers[2])).has_value());
  const auto fragment = run_task(sim, client.read_fragment(coll, 0));
  ASSERT_TRUE(fragment.has_value()) << to_string(fragment.error());
  EXPECT_EQ(fragment.value().members().size(), refs.size());
  EXPECT_EQ(reg.counter("placement.dir.lookups"), 2u);
  EXPECT_EQ(reg.counter("store.client.wrong_epoch_retries"), 2u);
}

TEST_F(PlacementTest, FrozenFragmentRefusesToMigrate) {
  build();
  const CollectionId coll = repo.create_collection({servers[0]});
  populate(coll, servers[2], 4);
  RepositoryClient locker{repo, client_node};
  ASSERT_TRUE(run_task(sim, locker.freeze_all(coll)).has_value());
  const auto attempt =
      run_task(sim, migrate_rpc(coll, 0, servers[0], servers[1]));
  ASSERT_FALSE(attempt.has_value());
  EXPECT_EQ(repo.meta(coll).epoch(), 1u);
  run_task(sim, locker.unfreeze_all(coll));
  EXPECT_TRUE(
      run_task(sim, migrate_rpc(coll, 0, servers[0], servers[1])).has_value());
}

TEST_F(PlacementTest, ReplicatedFragmentRefusesToMigrateButKeepsConverging) {
  // Replicas pull from the fragment primary, and that link does not move
  // with a fragment: the migration engine must refuse a replicated fragment
  // outright — cleanly, with the placement untouched and anti-entropy still
  // live — rather than strand its replicas on a retired host.
  StoreServerOptions options;
  options.pull_interval = Duration::millis(20);
  build(options);
  const CollectionId coll = repo.create_collection({servers[0]});
  repo.add_replica(coll, 0, servers[1]);  // pulls from the primary
  const std::vector<ObjectRef> refs = populate(coll, servers[2], 4);

  const auto attempt =
      run_task(sim, migrate_rpc(coll, 0, servers[0], servers[2]));
  ASSERT_FALSE(attempt.has_value());

  // Clean refusal: no epoch bump, no adoption, the source still primary and
  // serving.
  EXPECT_EQ(repo.meta(coll).epoch(), 1u);
  EXPECT_EQ(repo.meta(coll).fragments()[0].primary(), servers[0]);
  EXPECT_TRUE(repo.server_at(servers[0])->hosts_primary(coll));
  EXPECT_FALSE(repo.server_at(servers[0])->is_retired(coll));
  EXPECT_EQ(reg.counter("placement.migrations_committed"), 0u);
  EXPECT_EQ(reg.counter("placement.fragments_adopted"), 0u);

  // Anti-entropy survived the refused attempt: a fresh write still reaches
  // the replica.
  const ObjectRef extra = repo.create_object(servers[2], "after-refusal");
  RepositoryClient writer{repo, client_node};
  ASSERT_TRUE(run_task(sim, writer.add(coll, extra)).value_or(false));
  const auto* state = repo.server_at(servers[1])->collection(coll);
  const SimTime start = sim.now();
  while (!state->contains(extra) &&
         sim.now() - start < Duration::seconds(2)) {
    sim.run_until(sim.now() + Duration::millis(1));
  }
  EXPECT_TRUE(state->contains(extra));
  EXPECT_EQ(state->members().size(), refs.size() + 1);
}

// ---------------------------------------------------------------------------
// Crash recovery of an interrupted migration

TEST_F(PlacementTest, MigrationAbortedByAmnesiaCrashRecoversToSingleHome) {
  StoreServerOptions options;
  options.durability.durable_acks = true;
  options.durability.fsync_interval = Duration::millis(1);
  options.durability.checkpoint_interval = Duration::millis(40);
  placement::MigrationEngineOptions engine_options;
  engine_options.chunk_size = 4;  // stream slowly so the crash lands inside
  build(options, engine_options);

  const CollectionId coll = repo.create_collection({servers[0]});
  const std::vector<ObjectRef> refs = populate(coll, servers[2], 32);
  sleep_for(Duration::millis(60));  // a checkpoint covers the membership

  // Kick the migration off and crash the source while chunks stream
  // (8 slices x ~10ms round trip each; 30ms lands mid-stream).
  auto outcome =
      std::make_shared<std::optional<Result<std::uint64_t>>>(std::nullopt);
  sim.spawn([](placement::MigrationEngine& engine, CollectionId id,
               NodeId target,
               std::shared_ptr<std::optional<Result<std::uint64_t>>> out)
                -> Task<void> {
    *out = co_await engine.migrate(id, 0, target);
  }(*engines[0], coll, servers[1], outcome));
  sim.schedule(Duration::millis(30), [this] {
    topo.crash(servers[0], Topology::CrashKind::kAmnesia);
  });
  sim.schedule(Duration::millis(150), [this] { topo.restart(servers[0]); });
  sleep_for(Duration::seconds(4));  // past the engine's RPC timeouts

  ASSERT_TRUE(outcome->has_value());
  EXPECT_FALSE((*outcome)->has_value());
  EXPECT_EQ(reg.counter("placement.migrations_committed"), 0u);
  EXPECT_GE(reg.counter("wal.recoveries"), 1u);

  // One consistent home: the WAL has a begin without a done, so recovery
  // restored the fragment on the source; the target never promoted its
  // staging and the directory never moved.
  EXPECT_EQ(repo.meta(coll).epoch(), 1u);
  EXPECT_EQ(repo.meta(coll).fragments()[0].primary(), servers[0]);
  EXPECT_TRUE(repo.server_at(servers[0])->hosts_primary(coll));
  EXPECT_FALSE(repo.server_at(servers[1])->hosts_primary(coll));

  RepositoryClient client{repo, client_node};
  const auto members = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), refs.size());

  // And the recovered home can still migrate successfully afterwards.
  const auto retry =
      run_task(sim, migrate_rpc(coll, 0, servers[0], servers[1]));
  ASSERT_TRUE(retry.has_value()) << to_string(retry.error());
  EXPECT_EQ(retry.value(), 2u);
  EXPECT_EQ(run_task(sim, client.read_all(coll)).value().size(), refs.size());
}

// ---------------------------------------------------------------------------
// Rebalancer policies

TEST_F(PlacementTest, LeastLoadedPolicyDrainsTheHotNode) {
  build();
  // Both fragments (of two collections) start on s0; s1 and s2 are idle.
  // The warm one keeps s0 non-empty after the move, so shipping the hot
  // fragment off is a genuine improvement, not a hot-spot swap.
  const CollectionId hot = repo.create_collection({servers[0]});
  const CollectionId warm = repo.create_collection({servers[0]});
  populate(hot, servers[2], 6);
  populate(warm, servers[2], 6);

  placement::RebalancerOptions options;
  options.policy = placement::RebalancePolicy::kLeastLoaded;
  options.interval = Duration::millis(50);
  options.min_window_load = 4;
  options.metrics = &reg;
  rebalancer = std::make_unique<placement::Rebalancer>(repo, client_node,
                                                       options);
  rebalancer->manage(hot);
  rebalancer->manage(warm);
  rebalancer->start();

  // Hammer the hot collection (and tick the warm one over); the plain
  // client follows the authoritative map, so its reads keep finding the
  // fragments wherever they live.
  const auto read_loop = [](Simulator& s, Repository& r, NodeId node,
                            CollectionId id, Duration period,
                            int count) -> Task<void> {
    RepositoryClient reader{r, node};
    for (int i = 0; i < count; ++i) {
      (void)co_await reader.read_all(id);
      co_await s.delay(period);
    }
  };
  sim.spawn(read_loop(sim, repo, client_node, hot, Duration::millis(3), 180));
  sim.spawn(read_loop(sim, repo, client_node, warm, Duration::millis(9), 60));
  sleep_for(Duration::millis(800));

  EXPECT_GE(rebalancer->moves_committed(), 1u);
  // The hot fragment drained off s0 to an idle node.
  EXPECT_NE(repo.meta(hot).fragments()[0].primary(), servers[0]);
  EXPECT_GE(repo.meta(hot).epoch(), 2u);
  // The warm fragment had no reason to move.
  EXPECT_EQ(repo.meta(warm).fragments()[0].primary(), servers[0]);
  EXPECT_EQ(reg.counter("placement.rebalance_commits"),
            rebalancer->moves_committed());
}

TEST_F(PlacementTest, LocalityPolicyMovesTheFragmentTowardItsReaders) {
  // Not a mesh: the reader is 1ms from s1 but 25ms from s0 (via explicit
  // links), so read-weighted distance strongly favours s1.
  Simulator local_sim;
  Topology local_topo;
  const NodeId reader_node = local_topo.add_node("reader");
  const NodeId far = local_topo.add_node("far");
  const NodeId near = local_topo.add_node("near");
  local_topo.connect(reader_node, far, Duration::millis(25));
  local_topo.connect(reader_node, near, Duration::millis(1));
  local_topo.connect(far, near, Duration::millis(2));
  RpcNetwork local_net{local_sim, local_topo, Rng{11}};
  Repository local_repo{local_net};
  local_repo.add_server(far);
  local_repo.add_server(near);
  placement::MigrationEngine far_engine{local_repo, far};
  placement::MigrationEngine near_engine{local_repo, near};
  const CollectionId coll = local_repo.create_collection({far});
  RepositoryClient writer{local_repo, reader_node};
  for (int i = 0; i < 5; ++i) {
    const ObjectRef ref =
        local_repo.create_object(near, "p" + std::to_string(i));
    ASSERT_TRUE(run_task(local_sim, writer.add(coll, ref)).value_or(false));
  }

  placement::RebalancerOptions options;
  options.policy = placement::RebalancePolicy::kLocality;
  options.interval = Duration::millis(100);
  options.min_window_load = 4;
  placement::Rebalancer local_rebalancer{local_repo, reader_node, options};
  local_rebalancer.manage(coll);
  local_rebalancer.start();

  local_sim.spawn([](Simulator& s, Repository& r, NodeId node,
                     CollectionId id) -> Task<void> {
    RepositoryClient reader{r, node};
    for (int i = 0; i < 40; ++i) {
      (void)co_await reader.read_all(id);
      co_await s.delay(Duration::millis(10));
    }
  }(local_sim, local_repo, reader_node, coll));
  run_task(local_sim, [](Simulator& s) -> Task<void> {
    co_await s.delay(Duration::seconds(1));
  }(local_sim));

  EXPECT_EQ(local_repo.meta(coll).fragments()[0].primary(), near);
  EXPECT_GE(local_rebalancer.moves_committed(), 1u);

  local_rebalancer.stop();
  local_repo.stop_all_daemons();
  local_sim.run();
}

TEST_F(PlacementTest, NonePolicyNeverSchedulesAnything) {
  build();
  const CollectionId coll = repo.create_collection({servers[0]});
  populate(coll, servers[2], 4);
  placement::RebalancerOptions options;
  options.policy = placement::RebalancePolicy::kNone;
  options.metrics = &reg;
  rebalancer = std::make_unique<placement::Rebalancer>(repo, client_node,
                                                       options);
  rebalancer->manage(coll);
  rebalancer->start();
  sleep_for(Duration::seconds(2));
  EXPECT_EQ(rebalancer->moves_requested(), 0u);
  EXPECT_EQ(reg.counter("placement.rebalance_scans"), 0u);
  EXPECT_EQ(repo.meta(coll).epoch(), 1u);
}

}  // namespace
}  // namespace weakset
