// Tests for disconnected operation: hoarding, fully-offline iteration, and
// the measurable inconsistency the paper says mobile clients accept.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/caching_view.hpp"
#include "core/weak_set.hpp"
#include "obs/metrics.hpp"
#include "spec/repo_truth.hpp"
#include "spec/specs.hpp"

namespace weakset {
namespace {

class HoardTest : public ::testing::Test {
 protected:
  HoardTest() {
    laptop = topo.add_node("laptop");
    server = topo.add_node("server");
    other = topo.add_node("desk-client");
    topo.connect(laptop, server, Duration::millis(20));
    topo.connect(other, server, Duration::millis(5));
    repo.add_server(server);
    coll = repo.create_collection({server});
    for (int i = 0; i < 5; ++i) {
      objs.push_back(repo.create_object(server, "doc" + std::to_string(i)));
      repo.seed_member(coll, objs.back());
    }
  }
  ~HoardTest() override {
    repo.stop_all_daemons();
    sim.run();  // drain daemon wakeups so coroutine frames unwind (no leaks)
  }

  void disconnect() { topo.set_link_up(laptop, server, false); }
  void reconnect() { topo.set_link_up(laptop, server, true); }

  Simulator sim;
  Topology topo;
  NodeId laptop, server, other;
  std::vector<ObjectRef> objs;
  RpcNetwork net{sim, topo, Rng{71}};
  Repository repo{net};
  CollectionId coll;
};

TEST_F(HoardTest, HoardCapturesMembershipAndPayloads) {
  RepositoryClient client{repo, laptop};
  RepoSetView inner{client, coll};
  CachingSetView view{inner};
  const auto hoarded =
      run_task(sim, [](CachingSetView& v) -> Task<Result<void>> {
        co_return co_await v.hoard();
      }(view));
  ASSERT_TRUE(hoarded.has_value());
  EXPECT_TRUE(view.has_hoard());
  EXPECT_EQ(view.cache().size(), 5u);
}

TEST(HoardBatchTest, HoardSendsOneFetchBatchPerHome) {
  // Members homed on two servers: hoard() fetches them in one fetch_many,
  // so each home answers one store.fetch_batch and no store.fetch is sent.
  Simulator sim;
  Topology topo;
  const NodeId laptop = topo.add_node("laptop");
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  topo.connect_full_mesh(Duration::millis(20));
  obs::MetricsRegistry metrics;
  RpcNetwork net{sim, topo, Rng{73}, RpcOptions{.metrics = &metrics}};
  Repository repo{net};
  repo.add_server(a);
  repo.add_server(b);
  const CollectionId coll = repo.create_collection({a, b});
  for (int i = 0; i < 8; ++i) {
    const NodeId home = i % 2 == 0 ? a : b;
    repo.seed_member(coll, repo.create_object(home, "doc" + std::to_string(i)));
  }
  RepositoryClient client{repo, laptop};
  RepoSetView inner{client, coll};
  CachingSetView view{inner};
  const auto hoarded =
      run_task(sim, [](CachingSetView& v) -> Task<Result<void>> {
        co_return co_await v.hoard();
      }(view));
  ASSERT_TRUE(hoarded.has_value());
  EXPECT_EQ(view.cache().size(), 8u);
  EXPECT_EQ(metrics.counter("rpc.store.fetch_batch.ok"), 2u);
  EXPECT_EQ(metrics.counter("rpc.store.fetch.ok") +
                metrics.counter("rpc.store.fetch.failed"),
            0u);
  repo.stop_all_daemons();
  sim.run();
}

TEST_F(HoardTest, OfflineIterationCompletesFromHoard) {
  ClientOptions copts;
  copts.rpc_timeout = Duration::millis(300);
  RepositoryClient client{repo, laptop, copts};
  RepoSetView inner{client, coll};
  CachingSetView view{inner};
  (void)run_task(sim, [](CachingSetView& v) -> Task<Result<void>> {
    co_return co_await v.hoard();
  }(view));

  disconnect();
  auto iterator = make_elements_iterator(view, Semantics::kFig6Optimistic);
  const SimTime start = sim.now();
  const DrainResult result = run_task(sim, drain(*iterator));
  EXPECT_TRUE(result.finished());
  EXPECT_EQ(result.count(), 5u);
  // One failed live read (the RPC timeout) then pure local serving.
  EXPECT_GE(view.hoard_stats().stale_membership_serves, 1u);
  // Offline work costs no network time beyond the failed probe(s).
  EXPECT_LT(sim.now() - start, Duration::seconds(3));
  std::set<std::string> contents;
  for (const auto& [r, v] : result.elements()) contents.insert(v.data());
  EXPECT_EQ(contents.size(), 5u);
}

TEST_F(HoardTest, WithoutHoardDisconnectionBlocks) {
  ClientOptions copts;
  copts.rpc_timeout = Duration::millis(300);
  RepositoryClient client{repo, laptop, copts};
  RepoSetView inner{client, coll};
  CachingSetView view{inner};  // never hoarded

  disconnect();
  IteratorOptions options;
  options.retry = RetryPolicy{3, Duration::millis(100)};
  auto iterator =
      make_elements_iterator(view, Semantics::kFig6Optimistic, options);
  const DrainResult result = run_task(sim, drain(*iterator));
  ASSERT_TRUE(result.failure().has_value());
  EXPECT_EQ(result.failure()->kind, FailureKind::kExhausted);
  EXPECT_EQ(result.count(), 0u);
}

TEST_F(HoardTest, OfflineRunMissesMutationsAndTheSpecLayerMeasuresIt) {
  // Hoard, disconnect, let another client mutate, run offline: the run
  // yields a removed member (ghost) and misses the addition — and the
  // Figure 6 window check detects the ghost against ground truth.
  ClientOptions copts;
  copts.rpc_timeout = Duration::millis(300);
  RepositoryClient client{repo, laptop, copts};
  RepoSetView inner{client, coll};
  CachingSetView view{inner};
  (void)run_task(sim, [](CachingSetView& v) -> Task<Result<void>> {
    co_return co_await v.hoard();
  }(view));

  disconnect();
  sim.run_until(sim.now() + Duration::millis(100));

  // Mutations while the laptop is away.
  spec::TimelineProbe probe{repo, coll};
  RepositoryClient desk{repo, other};
  ASSERT_TRUE(run_task(sim, desk.remove(coll, objs[2])).has_value());
  const ObjectRef fresh = repo.create_object(server, "new-doc");
  ASSERT_TRUE(run_task(sim, desk.add(coll, fresh)).has_value());
  sim.run_until(sim.now() + Duration::millis(100));

  spec::RepoGroundTruth truth{repo, coll, laptop};
  spec::TraceRecorder recorder{truth};
  IteratorOptions options;
  options.recorder = &recorder;
  auto iterator =
      make_elements_iterator(view, Semantics::kFig6Optimistic, options);
  const DrainResult result = run_task(sim, drain(*iterator));
  EXPECT_TRUE(result.finished());
  EXPECT_EQ(result.count(), 5u);  // the hoarded view: ghost in, fresh out
  std::set<ObjectRef> yielded;
  for (const auto& [r, v] : result.elements()) yielded.insert(r);
  EXPECT_TRUE(yielded.count(objs[2]) > 0);   // ghost yielded
  EXPECT_TRUE(yielded.count(fresh) == 0);    // addition missed

  const auto report = spec::check_fig6(recorder.finish(), probe.timeline());
  EXPECT_FALSE(report.satisfied());  // the inconsistency is caught
}

TEST_F(HoardTest, ReconnectionResumesLiveReads) {
  RepositoryClient client{repo, laptop,
                          ClientOptions{Duration::millis(300), {}}};
  RepoSetView inner{client, coll};
  CachingSetView view{inner};
  (void)run_task(sim, [](CachingSetView& v) -> Task<Result<void>> {
    co_return co_await v.hoard();
  }(view));
  disconnect();
  sim.run_until(sim.now() + Duration::millis(50));
  reconnect();

  // New member appears; a live read after reconnection must see it.
  RepositoryClient desk{repo, other};
  const ObjectRef fresh = repo.create_object(server, "back-online");
  ASSERT_TRUE(run_task(sim, desk.add(coll, fresh)).has_value());
  const auto members = run_task(
      sim, [](CachingSetView& v) -> Task<Result<std::vector<ObjectRef>>> {
        co_return co_await v.read_members();
      }(view));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), 6u);
}

}  // namespace
}  // namespace weakset
