// Tests for full disconnected operation: local visibility of queued writes,
// reintegration outcomes (applied / redundant / failed), and the
// convergence of mobile and fixed clients after reconnection.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/iterator.hpp"
#include "core/mobile.hpp"

namespace weakset {
namespace {

class MobileTest : public ::testing::Test {
 protected:
  MobileTest() {
    laptop = topo.add_node("laptop");
    server = topo.add_node("server");
    desk = topo.add_node("desk");
    topo.connect(laptop, server, Duration::millis(20));
    topo.connect(desk, server, Duration::millis(5));
    repo.add_server(server);
    repo.add_server(laptop);  // the mobile node hosts its own objects
    coll = repo.create_collection({server});
    for (int i = 0; i < 3; ++i) {
      objs.push_back(repo.create_object(server, "doc" + std::to_string(i)));
      repo.seed_member(coll, objs.back());
    }
  }
  ~MobileTest() override {
    repo.stop_all_daemons();
    sim.run();  // drain daemon wakeups so coroutine frames unwind (no leaks)
  }

  void disconnect() { topo.set_link_up(laptop, server, false); }
  void reconnect() { topo.set_link_up(laptop, server, true); }

  std::set<ObjectRef> local_view(MobileSetClient& mobile) {
    const auto members = run_task(
        sim, [](MobileSetClient& m) -> Task<Result<std::vector<ObjectRef>>> {
          co_return co_await m.read_members();
        }(mobile));
    EXPECT_TRUE(members.has_value());
    return {members.value().begin(), members.value().end()};
  }

  /// Calls of `method` the network has carried, failed ones included.
  std::uint64_t rpcs(const std::string& method) const {
    return metrics.counter("rpc." + method + ".ok") +
           metrics.counter("rpc." + method + ".failed");
  }

  Simulator sim;
  Topology topo;
  NodeId laptop, server, desk;
  std::vector<ObjectRef> objs;
  obs::MetricsRegistry metrics;
  RpcNetwork net{sim, topo, Rng{81}, RpcOptions{.metrics = &metrics}};
  Repository repo{net};
  CollectionId coll;
};

ClientOptions snappy() {
  ClientOptions options;
  options.rpc_timeout = Duration::millis(300);
  return options;
}

TEST_F(MobileTest, ConnectedMutationsGoStraightThrough) {
  RepositoryClient client{repo, laptop, snappy()};
  MobileSetClient mobile{client, coll};
  const ObjectRef fresh = repo.create_object(laptop, "draft");
  const auto added = run_task(sim, mobile.add(fresh));
  ASSERT_TRUE(added.has_value());
  EXPECT_TRUE(added.value());
  EXPECT_EQ(mobile.pending_ops(), 0u);
  const auto* state = repo.server_at(server)->collection(coll);
  EXPECT_TRUE(state->contains(fresh));
}

TEST_F(MobileTest, ConnectedDrainBatchesFetchesAndReportsDeltaReads) {
  // Nine more members, homed alternately on the laptop and the server. A
  // window-8 drain refills twice (8 refs, then the last 4), each refill
  // spanning both homes: one store.fetch_batch per home per refill, four in
  // all, and not one store.fetch.
  for (int i = 3; i < 12; ++i) {
    objs.push_back(repo.create_object(i % 2 == 0 ? server : laptop,
                                      "doc" + std::to_string(i)));
    repo.seed_member(coll, objs.back());
  }
  RepositoryClient client{repo, laptop, snappy()};
  MobileSetClient mobile{client, coll};
  IteratorOptions options;
  options.prefetch_window = 8;
  auto first =
      make_elements_iterator(mobile, Semantics::kFig1Immutable, options);
  const DrainResult result = run_task(sim, drain(*first));
  EXPECT_TRUE(result.finished());
  EXPECT_EQ(result.count(), 12u);
  EXPECT_EQ(first->stats().prefetch_batches, 2u);
  EXPECT_EQ(rpcs("store.fetch_batch"), 4u);
  EXPECT_EQ(rpcs("store.fetch"), 0u);

  // The repository client reads the unchanged fragment as a delta the
  // second time, and the mobile client reports it as one.
  auto second =
      make_elements_iterator(mobile, Semantics::kFig1Immutable, options);
  EXPECT_TRUE(run_task(sim, drain(*second)).finished());
  EXPECT_EQ(second->stats().membership_full_fragments, 0u);
  EXPECT_EQ(second->stats().membership_delta_fragments, 1u);
}

TEST_F(MobileTest, DisconnectedWritesAreLocallyVisibleAndQueued) {
  RepositoryClient client{repo, laptop, snappy()};
  MobileSetClient mobile{client, coll};
  (void)run_task(sim, mobile.hoard());
  disconnect();

  // Create a file on the laptop's own store and link it; drop doc1.
  const ObjectRef draft = repo.create_object(laptop, "trip-notes");
  ASSERT_TRUE(run_task(sim, mobile.add(draft)).has_value());
  ASSERT_TRUE(run_task(sim, mobile.remove(objs[1])).has_value());
  EXPECT_EQ(mobile.pending_ops(), 2u);

  // The laptop's own view reflects both writes...
  const auto view = local_view(mobile);
  EXPECT_TRUE(view.count(draft) > 0);
  EXPECT_TRUE(view.count(objs[1]) == 0);
  EXPECT_EQ(view.size(), 3u);  // 3 originals - 1 + 1

  // ...and the server knows nothing yet.
  const auto* state = repo.server_at(server)->collection(coll);
  EXPECT_FALSE(state->contains(draft));
  EXPECT_TRUE(state->contains(objs[1]));
}

TEST_F(MobileTest, OfflineIterationSeesOwnWritesAndHoardedPayloads) {
  RepositoryClient client{repo, laptop, snappy()};
  MobileSetClient mobile{client, coll};
  (void)run_task(sim, mobile.hoard());
  disconnect();
  const ObjectRef draft = repo.create_object(laptop, "trip-notes");
  (void)run_task(sim, mobile.add(draft));

  auto iterator = make_elements_iterator(mobile, Semantics::kFig6Optimistic);
  const DrainResult result = run_task(sim, drain(*iterator));
  EXPECT_TRUE(result.finished());
  // 3 hoarded docs + the laptop-homed draft (reachable: it is local).
  EXPECT_EQ(result.count(), 4u);
}

TEST_F(MobileTest, ReintegrationAppliesQueuedOps) {
  RepositoryClient client{repo, laptop, snappy()};
  MobileSetClient mobile{client, coll};
  (void)run_task(sim, mobile.hoard());
  disconnect();
  const ObjectRef draft = repo.create_object(laptop, "trip-notes");
  (void)run_task(sim, mobile.add(draft));
  (void)run_task(sim, mobile.remove(objs[0]));

  reconnect();
  const ReintegrationReport report = run_task(sim, mobile.reintegrate());
  EXPECT_EQ(report.applied(), 2u);
  EXPECT_EQ(report.redundant(), 0u);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(mobile.pending_ops(), 0u);

  // The fixed-network client now sees the laptop's changes.
  const auto* state = repo.server_at(server)->collection(coll);
  EXPECT_TRUE(state->contains(draft));
  EXPECT_FALSE(state->contains(objs[0]));
}

TEST_F(MobileTest, ConcurrentIdenticalMutationIsRedundantNotConflict) {
  RepositoryClient client{repo, laptop, snappy()};
  MobileSetClient mobile{client, coll};
  (void)run_task(sim, mobile.hoard());
  disconnect();
  (void)run_task(sim, mobile.remove(objs[2]));

  // Meanwhile the desk client removes the same member.
  RepositoryClient desk_client{repo, desk};
  ASSERT_TRUE(run_task(sim, desk_client.remove(coll, objs[2])).has_value());

  reconnect();
  const ReintegrationReport report = run_task(sim, mobile.reintegrate());
  EXPECT_EQ(report.applied(), 0u);
  EXPECT_EQ(report.redundant(), 1u);
  EXPECT_TRUE(report.clean());
}

TEST_F(MobileTest, ReintegrationWhileStillDisconnectedKeepsTheLog) {
  RepositoryClient client{repo, laptop, snappy()};
  MobileSetClient mobile{client, coll};
  (void)run_task(sim, mobile.hoard());
  disconnect();
  const ObjectRef draft = repo.create_object(laptop, "trip-notes");
  (void)run_task(sim, mobile.add(draft));

  // Premature reintegration: still cut off.
  ReintegrationReport report = run_task(sim, mobile.reintegrate());
  EXPECT_EQ(report.failed(), 1u);
  EXPECT_EQ(mobile.pending_ops(), 1u);

  reconnect();
  report = run_task(sim, mobile.reintegrate());
  EXPECT_EQ(report.applied(), 1u);
  EXPECT_EQ(mobile.pending_ops(), 0u);
}

TEST_F(MobileTest, OverlayOrderingLastOpWins) {
  RepositoryClient client{repo, laptop, snappy()};
  MobileSetClient mobile{client, coll};
  (void)run_task(sim, mobile.hoard());
  disconnect();
  // remove then re-add the same member: present in the local view.
  (void)run_task(sim, mobile.remove(objs[0]));
  (void)run_task(sim, mobile.add(objs[0]));
  const auto view = local_view(mobile);
  EXPECT_TRUE(view.count(objs[0]) > 0);
  EXPECT_EQ(view.size(), 3u);
}

}  // namespace
}  // namespace weakset
