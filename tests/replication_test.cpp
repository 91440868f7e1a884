// Tests for replica convergence by pull anti-entropy: convergence latency,
// batched and removal catch-up, and repair after partitions.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "store/client.hpp"
#include "store/repository.hpp"

namespace weakset {
namespace {

class ReplicationTest : public ::testing::Test {
 protected:
  void build(Duration pull_interval = Duration::millis(500)) {
    client_node = topo.add_node("client");
    primary = topo.add_node("primary");
    replica = topo.add_node("replica");
    topo.connect(client_node, primary, Duration::millis(5));
    topo.connect(client_node, replica, Duration::millis(5));
    topo.connect(primary, replica, Duration::millis(10));
    StoreServerOptions opts;
    opts.pull_interval = pull_interval;
    repo.add_server(primary, opts);
    repo.add_server(replica, opts);
    coll = repo.create_collection({primary});
    repo.add_replica(coll, 0, replica);
  }

  ~ReplicationTest() override {
    repo.stop_all_daemons();
    sim.run();  // drain daemon wakeups so coroutine frames unwind (no leaks)
  }

  /// Adds one member via RPC; returns the simulated time of the ack.
  ObjectRef add_one(const std::string& tag) {
    const ObjectRef ref = repo.create_object(primary, tag);
    RepositoryClient writer{repo, client_node,
                            ClientOptions{{}, ReadPolicy::kPrimaryOnly}};
    const auto added = run_task(sim, writer.add(coll, ref));
    EXPECT_TRUE(added.has_value());
    return ref;
  }

  /// Simulated time until the replica contains `ref` (runs the sim forward).
  Duration convergence_time(ObjectRef ref, Duration limit) {
    const SimTime start = sim.now();
    const auto* state = repo.server_at(replica)->collection(coll);
    while (!state->contains(ref) && sim.now() - start < limit) {
      sim.run_until(sim.now() + Duration::millis(1));
    }
    return sim.now() - start;
  }

  Simulator sim;
  Topology topo;
  NodeId client_node, primary, replica;
  RpcNetwork net{sim, topo, Rng{101}};
  Repository repo{net};
  CollectionId coll;
};

TEST_F(ReplicationTest, PullConvergesWithinInterval) {
  build(Duration::millis(300));
  const ObjectRef ref = add_one("x");
  const Duration lag = convergence_time(ref, Duration::seconds(2));
  EXPECT_LE(lag, Duration::millis(320));
  EXPECT_GE(lag, Duration::millis(1));  // not instantaneous
}

TEST_F(ReplicationTest, PushBatchesBackToBackMutations) {
  build(Duration::millis(200));  // the whole burst lands before one pull
  std::vector<ObjectRef> refs;
  RepositoryClient writer{repo, client_node,
                          ClientOptions{{}, ReadPolicy::kPrimaryOnly}};
  run_task(sim, [](Repository& r, RepositoryClient& w, CollectionId c,
                   NodeId home, std::vector<ObjectRef>& out) -> Task<void> {
    for (int i = 0; i < 10; ++i) {
      const ObjectRef ref = r.create_object(home, "m" + std::to_string(i));
      out.push_back(ref);
      (void)co_await w.add(c, ref);
    }
  }(repo, writer, coll, primary, refs));
  sim.run_until(sim.now() + Duration::millis(200));
  const auto* state = repo.server_at(replica)->collection(coll);
  EXPECT_EQ(state->size(), 10u);
  EXPECT_EQ(state->applied_seq(), 10u);
}

TEST_F(ReplicationTest, PullCatchesUpAfterPartitionHeals) {
  build(Duration::millis(400));
  // Cut the primary-replica link: the replica cannot learn of the write.
  topo.set_routing(Topology::Routing::kDirectOnly);
  topo.set_link_up(primary, replica, false);
  const ObjectRef ref = add_one("x");
  sim.run_until(sim.now() + Duration::millis(100));
  const auto* state = repo.server_at(replica)->collection(coll);
  EXPECT_FALSE(state->contains(ref));

  // Heal: the next pull repairs.
  topo.set_link_up(primary, replica, true);
  const Duration lag = convergence_time(ref, Duration::seconds(2));
  EXPECT_LE(lag, Duration::millis(520));
  EXPECT_TRUE(state->contains(ref));
}

TEST_F(ReplicationTest, RemovalsPropagateToo) {
  build(Duration::millis(50));
  const ObjectRef ref = add_one("x");
  sim.run_until(sim.now() + Duration::millis(100));
  const auto* state = repo.server_at(replica)->collection(coll);
  ASSERT_TRUE(state->contains(ref));

  RepositoryClient writer{repo, client_node,
                          ClientOptions{{}, ReadPolicy::kPrimaryOnly}};
  ASSERT_TRUE(run_task(sim, writer.remove(coll, ref)).has_value());
  sim.run_until(sim.now() + Duration::millis(100));
  EXPECT_FALSE(state->contains(ref));
}

TEST_F(ReplicationTest, PullCutInFlightDoesNotStallConvergence) {
  build(Duration::millis(50));
  topo.set_routing(Topology::Routing::kDirectOnly);
  // The first pull leaves at +50 ms over the 10 ms primary-replica link:
  // cutting the link at +55 ms drops it in flight.
  sim.run_until(SimTime{} + Duration::millis(55));
  topo.set_link_up(primary, replica, false);
  sim.run_until(SimTime{} + Duration::millis(150));
  topo.set_link_up(primary, replica, true);
  // The lost pull must time out on the anti-entropy scale, not hold the
  // replica for the RPC layer's 2 s default.
  const ObjectRef ref = add_one("x");
  EXPECT_LE(convergence_time(ref, Duration::seconds(3)), Duration::millis(400));
}

}  // namespace
}  // namespace weakset
