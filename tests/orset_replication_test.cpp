// End-to-end tests for ReplicationMode::kOrSet (src/crdt, DESIGN.md decision
// 16): multi-master writes at any host, all-pairs anti-entropy convergence,
// partition availability where home-primary mode blocks, and amnesia
// recovery of the CRDT state from its checkpoint image and WAL tail.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "spec/repo_truth.hpp"
#include "spec/specs.hpp"
#include "store/client.hpp"
#include "store/repository.hpp"

namespace weakset {
namespace {

class OrSetReplicationTest : public ::testing::Test {
 protected:
  void build(StoreServerOptions opts = {}) {
    client_node = topo.add_node("client");
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(topo.add_node("host" + std::to_string(i)));
    }
    topo.connect_full_mesh(Duration::millis(5));
    for (const NodeId node : hosts) repo.add_server(node, opts);
    coll = repo.create_collection({hosts[0]}, ReplicationMode::kOrSet);
    repo.add_replica(coll, 0, hosts[1]);
    repo.add_replica(coll, 0, hosts[2]);
  }

  ~OrSetReplicationTest() override {
    repo.stop_all_daemons();
    sim.run();  // drain daemon wakeups so coroutine frames unwind (no leaks)
  }

  void sleep_for(Duration d) {
    run_task(sim, [](Simulator& s, Duration dd) -> Task<void> {
      co_await s.delay(dd);
    }(sim, d));
  }

  /// Simulated time until every host agrees on the member set (or `limit`).
  Duration convergence_time(Duration limit) {
    const SimTime start = sim.now();
    while (sim.now() - start < limit) {
      if (spec::check_converged(spec::orset_fragment_members(repo, coll, 0))
              .satisfied()) {
        break;
      }
      sim.run_until(sim.now() + Duration::millis(1));
    }
    return sim.now() - start;
  }

  [[nodiscard]] const crdt::OrSet* orset_at(std::size_t host) {
    return repo.server_at(hosts[host])->orset_state(coll);
  }

  /// Outlives the servers that record into it (the destructor drains them).
  obs::MetricsRegistry metrics;
  Simulator sim;
  Topology topo;
  NodeId client_node;
  std::vector<NodeId> hosts;
  RpcNetwork net{sim, topo, Rng{303}};
  Repository repo{net};
  CollectionId coll;
};

TEST_F(OrSetReplicationTest, WriteAtAnyHostConvergesEverywhere) {
  StoreServerOptions opts;
  opts.pull_interval = Duration::millis(20);
  build(opts);
  RepositoryClient client{repo, client_node};
  const ObjectRef ref = repo.create_object(hosts[1], "x");
  ASSERT_TRUE(run_task(sim, client.add(coll, ref)).value_or(false));
  const Duration lag = convergence_time(Duration::seconds(2));
  EXPECT_LE(lag, Duration::millis(100));
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_TRUE(orset_at(i)->contains(ref)) << "host " << i;
  }
}

TEST_F(OrSetReplicationTest, RemovePropagatesWithoutTombstoneGrowth) {
  StoreServerOptions opts;
  opts.pull_interval = Duration::millis(20);
  build(opts);
  RepositoryClient client{repo, client_node};
  const ObjectRef ref = repo.create_object(hosts[0], "x");
  ASSERT_TRUE(run_task(sim, client.add(coll, ref)).value_or(false));
  EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(100));
  ASSERT_TRUE(run_task(sim, client.remove(coll, ref)).value_or(false));
  EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(100));
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_FALSE(orset_at(i)->contains(ref)) << "host " << i;
    EXPECT_EQ(orset_at(i)->size(), 0u) << "host " << i;
  }
}

TEST_F(OrSetReplicationTest, MinoritySideWriteSurvivesPartition) {
  StoreServerOptions opts;
  opts.pull_interval = Duration::millis(20);
  build(opts);
  // Also stand up a home-primary collection on the same placement, to show
  // the availability difference under the identical partition.
  const CollectionId home_coll = repo.create_collection({hosts[0]});
  repo.add_replica(home_coll, 0, hosts[1]);
  repo.add_replica(home_coll, 0, hosts[2]);

  // Isolate {client, host1} from {host0, host2}: the client can only reach
  // host1, which is not the home-primary of either collection.
  topo.set_routing(Topology::Routing::kDirectOnly);
  for (const NodeId minority : {client_node, hosts[1]}) {
    for (const NodeId majority : {hosts[0], hosts[2]}) {
      topo.set_link_up(minority, majority, false);
    }
  }

  RepositoryClient client{repo, client_node};
  const ObjectRef ref = repo.create_object(hosts[1], "partitioned-write");
  // Home-primary mode: the write must reach host0 — blocked.
  EXPECT_FALSE(run_task(sim, client.add(home_coll, ref)).has_value());
  // OR-Set mode: host1 accepts the write locally.
  EXPECT_TRUE(run_task(sim, client.add(coll, ref)).value_or(false));
  EXPECT_TRUE(orset_at(1)->contains(ref));
  EXPECT_FALSE(orset_at(0)->contains(ref));

  // Heal; anti-entropy converges all three hosts on the new member.
  for (const NodeId minority : {client_node, hosts[1]}) {
    for (const NodeId majority : {hosts[0], hosts[2]}) {
      topo.set_link_up(minority, majority, true);
    }
  }
  EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(200));
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_TRUE(orset_at(i)->contains(ref)) << "host " << i;
  }
}

TEST_F(OrSetReplicationTest, ConcurrentUnseenAddSurvivesRemoteRemoval) {
  StoreServerOptions opts;
  opts.pull_interval = Duration::millis(20);
  build(opts);
  RepositoryClient client{repo, client_node};
  const ObjectRef ref = repo.create_object(hosts[0], "contested");
  ASSERT_TRUE(run_task(sim, client.add(coll, ref)).value_or(false));
  EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(100));

  // Partition host2 away, then concurrently remove at host0's side and
  // re-add at host2 (whose dots host0 has not observed).
  topo.set_routing(Topology::Routing::kDirectOnly);
  for (const NodeId other : {client_node, hosts[0], hosts[1]}) {
    topo.set_link_up(hosts[2], other, false);
  }
  // Remove travels via host0's side (the client reaches host0 and host1).
  ASSERT_TRUE(run_task(sim, client.remove(coll, ref)).value_or(false));
  // Concurrent re-add on the isolated host: remove(coll) then add so the
  // new dot is genuinely unseen by the majority side.
  const ObjectRef fresh = repo.create_object(hosts[2], "fresh-dot");
  ASSERT_TRUE(repo.server_at(hosts[2])->seed_orset_member(coll, fresh));

  for (const NodeId other : {client_node, hosts[0], hosts[1]}) {
    topo.set_link_up(hosts[2], other, true);
  }
  EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(200));
  // The original ref is gone everywhere (its dots were observed and killed);
  // the concurrently added member survives everywhere — add wins.
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_FALSE(orset_at(i)->contains(ref)) << "host " << i;
    EXPECT_TRUE(orset_at(i)->contains(fresh)) << "host " << i;
  }
}

TEST_F(OrSetReplicationTest, ReadsServeTheLocalOrSetMembership) {
  StoreServerOptions opts;
  opts.pull_interval = Duration::millis(20);
  build(opts);
  RepositoryClient client{repo, client_node};
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 4; ++i) {
    refs.push_back(repo.create_object(hosts[0], "m" + std::to_string(i)));
    ASSERT_TRUE(run_task(sim, client.add(coll, refs.back())).value_or(false));
  }
  EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(200));
  const auto members = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(std::set<ObjectRef>(members.value().begin(),
                                members.value().end()),
            std::set<ObjectRef>(refs.begin(), refs.end()));
  const auto size = run_task(sim, client.total_size(coll));
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(size.value(), refs.size());
}

TEST_F(OrSetReplicationTest, AmnesiaCrashReplaysWalAndResyncsWithPeers) {
  StoreServerOptions opts;
  opts.pull_interval = Duration::millis(20);
  opts.durability.durable_acks = true;
  opts.durability.fsync_interval = Duration::millis(1);
  opts.durability.checkpoint_interval = Duration::millis(50);
  build(opts);
  RepositoryClient client{repo, client_node};
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 3; ++i) {
    refs.push_back(repo.create_object(hosts[0], "d" + std::to_string(i)));
    ASSERT_TRUE(run_task(sim, client.add(coll, refs.back())).value_or(false));
  }
  EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(200));
  const std::uint64_t origin_before = orset_at(0)->origin();

  topo.crash(hosts[0], Topology::CrashKind::kAmnesia);
  topo.restart(hosts[0]);
  sleep_for(Duration::millis(200));  // recovery + first post-crash pulls

  // Durably acked members survived the crash (WAL replay), and the host
  // moved to a fresh dot namespace so recounted dots cannot collide.
  for (const ObjectRef ref : refs) {
    EXPECT_TRUE(orset_at(0)->contains(ref));
  }
  EXPECT_NE(orset_at(0)->origin(), origin_before);
  EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(300));

  // Post-recovery writes still work and converge.
  const ObjectRef after = repo.create_object(hosts[0], "post-crash");
  ASSERT_TRUE(run_task(sim, client.add(coll, after)).value_or(false));
  EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(200));
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    EXPECT_TRUE(orset_at(i)->contains(after)) << "host " << i;
  }
}

TEST_F(OrSetReplicationTest, CheckpointedHostReplaysOnlyItsTail) {
  StoreServerOptions opts;
  opts.pull_interval = Duration::millis(20);
  opts.durability.durable_acks = true;
  opts.durability.fsync_interval = Duration::millis(1);
  opts.durability.checkpoint_interval = Duration::millis(100);
  opts.metrics = &metrics;
  build(opts);
  // Every write below lands on host0: the hosts are equally near and the
  // client breaks the tie by node id.
  RepositoryClient client{repo, client_node};
  std::vector<ObjectRef> acked;
  // A history of 60 dot ops, covered by the checkpoint it arms.
  for (int i = 0; i < 40; ++i) {
    const ObjectRef ref = repo.create_object(hosts[0], "h" + std::to_string(i));
    ASSERT_TRUE(run_task(sim, client.add(coll, ref)).value_or(false));
    if (i % 2 == 0) {
      ASSERT_TRUE(run_task(sim, client.remove(coll, ref)).value_or(false));
    } else {
      acked.push_back(ref);
    }
  }
  sleep_for(Duration::millis(300));
  // The tail: three acked adds, and the crash comes before the checkpoint
  // they arm.
  for (int i = 0; i < 3; ++i) {
    acked.push_back(repo.create_object(hosts[0], "t" + std::to_string(i)));
    ASSERT_TRUE(run_task(sim, client.add(coll, acked.back())).value_or(false));
  }
  const std::uint64_t replayed_before = metrics.counter("wal.ops_replayed");
  topo.crash(hosts[0], Topology::CrashKind::kAmnesia);
  for (const ObjectRef ref : acked) {
    EXPECT_TRUE(orset_at(0)->contains(ref)) << ref.id().raw();
  }
  EXPECT_EQ(orset_at(0)->size(), acked.size());
  topo.restart(hosts[0]);
  sleep_for(Duration::millis(50));
  ASSERT_TRUE(repo.server_at(hosts[0])->serving());
  // Only the tail replays; the checkpoint image holds the rest.
  EXPECT_EQ(metrics.counter("wal.ops_replayed") - replayed_before, 3u);
}

TEST_F(OrSetReplicationTest, JoinLearnedContextSurvivesCheckpointAndRecovery) {
  StoreServerOptions opts;
  opts.pull_interval = Duration::millis(20);
  opts.membership_log_cap = 2;
  // Checkpoints are taken by hand below.
  opts.durability.checkpoint_interval = Duration::seconds(1000);
  opts.metrics = &metrics;
  build(opts);
  sleep_for(Duration::millis(100));  // the hosts' pull cursors settle

  // Cut host0 off, so the client writes at host1 instead.
  topo.set_routing(Topology::Routing::kDirectOnly);
  const auto link_host0 = [&](bool up) {
    for (const NodeId other : {client_node, hosts[1], hosts[2]}) {
      topo.set_link_up(hosts[0], other, up);
    }
  };
  link_host0(false);
  RepositoryClient client{repo, client_node};
  // Born and killed at host1: host0 never sees the dot as an op. Three
  // local ops overrun host1's two-op log, so host0's next pull is a
  // snapshot join.
  const ObjectRef gone = repo.create_object(hosts[1], "gone");
  ASSERT_TRUE(run_task(sim, client.add(coll, gone)).value_or(false));
  const std::vector<crdt::DotOp> live = orset_at(1)->export_live();
  ASSERT_EQ(live.size(), 1u);
  const crdt::Dot dot = live.front().dot();
  ASSERT_TRUE(run_task(sim, client.remove(coll, gone)).value_or(false));
  const ObjectRef kept = repo.create_object(hosts[1], "kept");
  ASSERT_TRUE(run_task(sim, client.add(coll, kept)).value_or(false));

  const std::uint64_t joins_before =
      metrics.counter("store.orset.snapshot_joins");
  link_host0(true);
  sleep_for(Duration::millis(100));
  ASSERT_GT(metrics.counter("store.orset.snapshot_joins"), joins_before);
  ASSERT_TRUE(orset_at(0)->contains(kept));
  ASSERT_FALSE(orset_at(0)->contains(gone));
  ASSERT_TRUE(orset_at(0)->context().contains(dot));

  ASSERT_TRUE(run_task(sim, repo.server_at(hosts[0])->checkpoint_now()));
  // No post-recovery pull may re-teach the dot.
  link_host0(false);
  topo.crash(hosts[0], Topology::CrashKind::kAmnesia);
  topo.restart(hosts[0]);
  sleep_for(Duration::millis(50));
  ASSERT_TRUE(repo.server_at(hosts[0])->serving());
  EXPECT_TRUE(orset_at(0)->context().contains(dot));
  EXPECT_TRUE(orset_at(0)->contains(kept));
  EXPECT_FALSE(orset_at(0)->contains(gone));
}

TEST_F(OrSetReplicationTest, PullShipsADeltaWhileThePeersLogCoversTheCursor) {
  // orset.pull answers with dot ops exactly while the peer's bounded
  // outbound log still covers the puller's cursor (OpLog::covers), and
  // with its full state after that. With a log cap of 4, a host cut off at
  // cursor S still catches up on four more local ops of a peer as a delta;
  // five push the op after S out of the log and force a join.
  StoreServerOptions opts;
  opts.pull_interval = Duration::millis(20);
  opts.membership_log_cap = 4;
  opts.metrics = &metrics;
  build(opts);
  StoreServer& writer = *repo.server_at(hosts[0]);
  std::vector<ObjectRef> refs;
  // Local ops at host 0, spaced so host 2 (never cut off) keeps up.
  const auto write = [&](int count) {
    for (int i = 0; i < count; ++i) {
      refs.push_back(repo.create_object(hosts[0], "x"));
      EXPECT_TRUE(writer.seed_orset_member(coll, refs.back()));
      sleep_for(opts.pull_interval * 3);
    }
  };
  const auto cut_off_and_write = [&](int count) {
    topo.partition({{hosts[0], hosts[2], client_node}, {hosts[1]}});
    write(count);
    topo.heal();
    EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(200));
    for (const ObjectRef ref : refs) EXPECT_TRUE(orset_at(1)->contains(ref));
  };

  write(2);  // S = 2
  EXPECT_LE(convergence_time(Duration::seconds(2)), Duration::millis(200));
  const std::uint64_t snapshots =
      metrics.counter("store.orset.pull_snapshots");
  const std::uint64_t joins = metrics.counter("store.orset.snapshot_joins");

  cut_off_and_write(4);  // host 0's log holds S+1..S+4: a delta still
  EXPECT_EQ(metrics.counter("store.orset.pull_snapshots"), snapshots);
  EXPECT_EQ(metrics.counter("store.orset.snapshot_joins"), joins);

  cut_off_and_write(5);  // the op after host 1's cursor is trimmed: a join
  EXPECT_EQ(metrics.counter("store.orset.pull_snapshots"), snapshots + 1);
  EXPECT_EQ(metrics.counter("store.orset.snapshot_joins"), joins + 1);
}

TEST_F(OrSetReplicationTest, OrSetFragmentsRefuseMigration) {
  build();
  EXPECT_TRUE(repo.server_at(hosts[0])->migration_blocked(coll));
  EXPECT_TRUE(repo.server_at(hosts[1])->migration_blocked(coll));
}

}  // namespace
}  // namespace weakset
