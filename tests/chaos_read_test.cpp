// Chaos tests for the fan-out + delta-sync read path: a fragment's hosts
// vanish *mid-iteration* and the behaviour must match the read policy —
// clean failure propagation under kPrimaryOnly, transparent fail-over to a
// replica (with a fresh delta cursor) under kNearest.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/weak_set.hpp"
#include "net/chaos.hpp"
#include "obs/metrics.hpp"

namespace weakset {
namespace {

/// Client + four servers. Two fragments, each with a primary and a replica:
/// fragment 0 on s0 (replica s1), fragment 1 on s2 (replica s3). Direct
/// routing with the client nearer the primaries, so kNearest prefers a
/// primary until it becomes unreachable.
class ChaosReadTest : public ::testing::Test {
 protected:
  ChaosReadTest() {
    topo.set_routing(Topology::Routing::kDirectOnly);
    client_node = topo.add_node("client");
    for (int i = 0; i < 4; ++i) {
      servers.push_back(topo.add_node("s" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < servers.size(); ++i) {
      for (std::size_t j = i + 1; j < servers.size(); ++j) {
        topo.connect(servers[i], servers[j], Duration::millis(8));
      }
      // Primaries (s0, s2) at 5ms; replicas (s1, s3) at 12ms.
      topo.connect(client_node, servers[i],
                   Duration::millis(i % 2 == 0 ? 5 : 12));
    }
    for (const NodeId node : servers) repo.add_server(node);
  }

  ~ChaosReadTest() override {
    repo.stop_all_daemons();
    sim.run();  // drain daemon wakeups so coroutine frames unwind
  }

  /// Two-fragment set with replicas, n objects homed round-robin across all
  /// servers (so some live with the fragment-1 primary and go dark with it).
  WeakSet make_set(RepositoryClient& client, int n) {
    WeakSet set = WeakSet::create(repo, client, {servers[0], servers[2]});
    repo.add_replica(set.id(), 0, servers[1]);
    repo.add_replica(set.id(), 1, servers[3]);
    for (int i = 0; i < n; ++i) {
      const NodeId home = servers[static_cast<std::size_t>(i) % 4];
      objects.push_back(repo.create_object(home, "c" + std::to_string(i)));
      repo.seed_member(set.id(), objects.back());
    }
    // Let anti-entropy converge the replicas before the run starts.
    sim.run_until(sim.now() + Duration::millis(300));
    return set;
  }

  Simulator sim;
  Topology topo;
  NodeId client_node;
  std::vector<NodeId> servers;
  std::vector<ObjectRef> objects;
  RpcNetwork net{sim, topo, Rng{77}};
  Repository repo{net};
};

TEST_F(ChaosReadTest, PrimaryOnlyFailsCleanlyWhenFragmentHostsCut) {
  // kPrimaryOnly admits no fail-over: when fragment 1's primary becomes
  // unreachable mid-iteration, the very next membership refresh must
  // propagate a clean failure out of the fan-out gather — not hang, not
  // yield from a stale cache.
  ClientOptions copts;
  copts.read_policy = ReadPolicy::kPrimaryOnly;
  RepositoryClient client{repo, client_node, copts};
  WeakSet set = make_set(client, 8);

  sim.schedule(Duration::millis(25), [this] {
    topo.set_link_up(client_node, servers[2], false);
  });

  auto iterator = set.elements(Semantics::kFig5GrowOnlyPessimistic);
  const DrainResult result = run_task(sim, drain(*iterator));

  EXPECT_FALSE(result.finished());
  ASSERT_TRUE(result.failure().has_value());
  // The fan-out path reports the cut fragment's failure verbatim; depending
  // on whether the cut lands before or during an in-flight RPC, that is
  // "no reachable host" or the link failure itself.
  const FailureKind kind = result.failure()->kind;
  EXPECT_TRUE(kind == FailureKind::kPartitioned ||
              kind == FailureKind::kLinkDown ||
              kind == FailureKind::kUnreachable)
      << "unexpected failure kind " << static_cast<int>(kind);
  // The pre-cut invocations made progress.
  EXPECT_GT(result.count(), 0u);
  EXPECT_LT(result.count(), 8u);
}

TEST_F(ChaosReadTest, NearestFailsOverToReplicaAndKeepsDeltaSyncing) {
  // kNearest + delta reads: when the preferred host (the primary) goes
  // dark, the client switches to the replica. The per-(fragment, host)
  // cursor cache means the switch costs exactly one full read on the new
  // host — after which the delta path resumes. The iterator itself never
  // notices: it rides out the unreachable *elements* optimistically and
  // completes once the partition heals.
  ClientOptions copts;
  copts.read_policy = ReadPolicy::kNearest;
  copts.delta_reads = true;
  RepositoryClient client{repo, client_node, copts};
  WeakSet set = make_set(client, 8);

  // The iterator reads membership back to back, so the cut catches a read
  // of s2 in flight, and a link that drops does not fail the calls already
  // on it: that read waits out the 2 s RPC timeout. The outage lasts 3 s so
  // that the retry after it still starts while s2 is dark, which is what
  // fails the client over to the replica.
  sim.schedule(Duration::millis(25), [this] {
    // Cut the client off from fragment 1's primary only; server-to-server
    // links stay up, so the replica keeps converging.
    topo.set_link_up(client_node, servers[2], false);
  });
  sim.schedule(Duration::seconds(3), [this] {
    topo.set_link_up(client_node, servers[2], true);
  });

  IteratorOptions options;
  options.retry = RetryPolicy{500, Duration::millis(50)};
  auto iterator = set.elements(Semantics::kFig6Optimistic, options);
  const DrainResult result = run_task(sim, drain(*iterator));

  // Completes with every element: the objects homed on s2 become fetchable
  // again after the heal at t=3.3s.
  EXPECT_TRUE(result.finished());
  EXPECT_EQ(result.count(), 8u);
  EXPECT_GE(sim.now() - SimTime::zero(), Duration::seconds(3));

  const ClientReadStats& stats = client.read_stats();
  // The delta path carried the steady state...
  EXPECT_GT(stats.fragment_reads_delta, 0u);
  // ...and the host switches (primary -> replica at the cut, replica ->
  // primary at the heal) each started a fresh cursor with a full read:
  // first contact with both primaries, plus at least the replica.
  EXPECT_GE(stats.fragment_reads_full, 3u);
  // Deltas dominated: refreshing per next() did not re-ship the set.
  EXPECT_GT(stats.fragment_reads_delta, stats.fragment_reads_full);
}

class ChaosReadSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosReadSweep, Fig6WithDeltaSyncRidesOutInjectedChaos) {
  // Randomised variant: crashes and link cuts rain on replicas and member
  // homes while the optimistic iterator runs with delta reads enabled. The
  // forever-retrying iterator must deliver everything; the delta cache must
  // never resurrect state from a host it has not re-contacted (the
  // per-host cursor makes that structural).
  Simulator sim;
  Topology topo;
  const NodeId client_node = topo.add_node("client");
  std::vector<NodeId> servers;
  for (int i = 0; i < 5; ++i) {
    servers.push_back(topo.add_node("s" + std::to_string(i)));
  }
  topo.connect_full_mesh(Duration::millis(8));
  RpcNetwork net{sim, topo, Rng{GetParam()}};
  Repository repo{net};
  for (const NodeId node : servers) repo.add_server(node);

  ClientOptions copts;
  copts.read_policy = ReadPolicy::kNearest;
  copts.delta_reads = true;
  RepositoryClient client{repo, client_node, copts};
  WeakSet set = WeakSet::create(repo, client, {servers[0]});
  repo.add_replica(set.id(), 0, servers[1]);
  for (int i = 0; i < 12; ++i) {
    repo.seed_member(set.id(),
                     repo.create_object(
                         servers[static_cast<std::size_t>(1 + i % 4)],
                         "chaos" + std::to_string(i)));
  }
  sim.run_until(sim.now() + Duration::millis(300));

  // Chaos on the replica and the member homes; the fragment primary stays
  // up so membership stays readable through every outage.
  ChaosOptions chaos_options;
  chaos_options.mean_uptime = Duration::millis(200);
  chaos_options.outage = Duration::millis(300);
  chaos_options.deadline = sim.now() + Duration::seconds(6);
  ChaosInjector chaos{sim, topo,
                      {servers[1], servers[2], servers[3], servers[4]},
                      GetParam() ^ 0xe13, chaos_options};

  IteratorOptions options;
  options.retry = RetryPolicy::forever(Duration::millis(150));
  auto iterator = set.elements(Semantics::kFig6Optimistic, options);
  const DrainResult result = run_task(sim, drain(*iterator));
  chaos.stop();
  repo.stop_all_daemons();
  sim.run();

  EXPECT_TRUE(result.finished()) << "seed " << GetParam();
  EXPECT_EQ(result.count(), 12u) << "seed " << GetParam();
  EXPECT_GT(chaos.crashes() + chaos.link_cuts(), 0u) << "seed " << GetParam();
  EXPECT_GT(client.read_stats().fragment_reads_delta, 0u)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosReadSweep,
                         ::testing::Range<std::uint64_t>(900, 908));

}  // namespace
}  // namespace weakset

// Custom main (linked without gtest_main): understands --metrics-out=FILE so
// CI can export the run's simulated-time telemetry as a JSON artifact.
int main(int argc, char** argv) {
  const std::optional<std::string> metrics_out =
      weakset::obs::extract_metrics_out(argc, argv);
  ::testing::InitGoogleTest(&argc, argv);
  const int rc = RUN_ALL_TESTS();
  if (metrics_out &&
      !weakset::obs::global().write_json_file(*metrics_out)) {
    return 1;
  }
  return rc;
}
