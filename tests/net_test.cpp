// Unit tests for the network substrate: topology, partitions, and RPC.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/chaos.hpp"
#include "net/rpc.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace weakset {
namespace {

class TopologyTest : public ::testing::Test {
 protected:
  Topology topo;
  NodeId a = topo.add_node("a");
  NodeId b = topo.add_node("b");
  NodeId c = topo.add_node("c");
};

TEST_F(TopologyTest, NodesStartUp) {
  EXPECT_TRUE(topo.is_up(a));
  EXPECT_TRUE(topo.is_up(b));
  EXPECT_EQ(topo.node_count(), 3u);
  EXPECT_EQ(topo.name(a), "a");
}

TEST_F(TopologyTest, DisconnectedNodesCannotCommunicate) {
  EXPECT_FALSE(topo.can_communicate(a, b));
  EXPECT_TRUE(topo.can_communicate(a, a));  // self, while up
}

TEST_F(TopologyTest, DirectLinkLatency) {
  topo.connect(a, b, Duration::millis(10));
  ASSERT_TRUE(topo.can_communicate(a, b));
  EXPECT_EQ(topo.path_latency(a, b), Duration::millis(10));
  EXPECT_EQ(topo.path_latency(b, a), Duration::millis(10));
}

TEST_F(TopologyTest, MultiHopUsesShortestPath) {
  topo.connect(a, b, Duration::millis(10));
  topo.connect(b, c, Duration::millis(10));
  topo.connect(a, c, Duration::millis(50));
  // a->c direct costs 50; a->b->c costs 20.
  EXPECT_EQ(topo.path_latency(a, c), Duration::millis(20));
}

TEST_F(TopologyTest, CrashedNodeUnreachable) {
  topo.connect(a, b, Duration::millis(5));
  topo.crash(b);
  EXPECT_FALSE(topo.can_communicate(a, b));
  EXPECT_FALSE(topo.can_communicate(b, b));  // down node can't even self-talk
  topo.restart(b);
  EXPECT_TRUE(topo.can_communicate(a, b));
}

TEST_F(TopologyTest, CrashedRelayBreaksPath) {
  topo.connect(a, b, Duration::millis(5));
  topo.connect(b, c, Duration::millis(5));
  EXPECT_TRUE(topo.can_communicate(a, c));
  topo.crash(b);
  EXPECT_FALSE(topo.can_communicate(a, c));
}

TEST_F(TopologyTest, LinkDownBlocksDirectPath) {
  topo.connect(a, b, Duration::millis(5));
  topo.set_link_up(a, b, false);
  EXPECT_FALSE(topo.can_communicate(a, b));
  EXPECT_FALSE(topo.link_up(a, b));
  topo.set_link_up(a, b, true);
  EXPECT_TRUE(topo.can_communicate(a, b));
}

TEST_F(TopologyTest, ReconnectUpdatesLatency) {
  topo.connect(a, b, Duration::millis(5));
  topo.connect(a, b, Duration::millis(9));
  EXPECT_EQ(topo.path_latency(a, b), Duration::millis(9));
}

TEST_F(TopologyTest, FullMeshConnectsEveryPair) {
  topo.connect_full_mesh(Duration::millis(3));
  EXPECT_TRUE(topo.can_communicate(a, b));
  EXPECT_TRUE(topo.can_communicate(b, c));
  EXPECT_TRUE(topo.can_communicate(a, c));
}

TEST_F(TopologyTest, PartitionCutsCrossGroupLinks) {
  topo.connect_full_mesh(Duration::millis(1));
  topo.partition({{a, b}, {c}});
  EXPECT_TRUE(topo.can_communicate(a, b));
  EXPECT_FALSE(topo.can_communicate(a, c));
  EXPECT_FALSE(topo.can_communicate(b, c));
  // The paper's Figure 2 situation: c exists but is inaccessible.
  topo.heal();
  EXPECT_TRUE(topo.can_communicate(a, c));
}

TEST_F(TopologyTest, VersionBumpsOnMutation) {
  const auto v0 = topo.version();
  topo.connect(a, b, Duration::millis(1));
  EXPECT_GT(topo.version(), v0);
  const auto v1 = topo.version();
  topo.crash(a);
  EXPECT_GT(topo.version(), v1);
}

// ---------------------------------------------------------------------------
// RPC

// User-provided constructor keeps this a non-aggregate: GCC 12 miscompiles
// non-trivial aggregate temporaries inside co_await expressions (see
// DESIGN.md, key design decision 6).
struct EchoRequest {
  explicit EchoRequest(std::string text) : text(std::move(text)) {}
  std::string text;
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() {
    topo.connect(client, server, Duration::millis(10));
    net.register_handler(
        server, "echo",
        [this](NodeId, Payload request) -> Task<Result<Payload>> {
          const auto req = payload_cast<EchoRequest>(std::move(request));
          co_await sim.delay(Duration::millis(1));  // service time
          co_return Payload{std::string{"echo:" + req.text}};
        });
  }

  Result<std::string> do_call(Duration timeout = Duration::seconds(2)) {
    return run_task(sim, net.call_typed<std::string>(
                             client, server, "echo", EchoRequest{"hi"},
                             timeout));
  }

  Simulator sim;
  Topology topo;
  NodeId client = topo.add_node("client");
  NodeId server = topo.add_node("server");
  RpcNetwork net{sim, topo, Rng{42}};
};

TEST_F(RpcTest, RoundTripDeliversReply) {
  const auto result = do_call();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result.value(), "echo:hi");
  // Two 10ms hops (plus jitter <= 20% and 1ms service time).
  EXPECT_GE(sim.now() - SimTime::zero(), Duration::millis(21));
  EXPECT_LE(sim.now() - SimTime::zero(), Duration::millis(26));
  EXPECT_EQ(net.stats().completed, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 2u);
}

TEST_F(RpcTest, UnknownMethodFails) {
  const auto result = run_task(
      sim, net.call_typed<std::string>(client, server, "nope",
                                       EchoRequest{"x"}));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, FailureKind::kNotFound);
}

TEST_F(RpcTest, CrashedServerDetectedQuickly) {
  topo.crash(server);
  const auto result = do_call();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, FailureKind::kNodeCrashed);
  // Fast failure detection, not a full timeout.
  EXPECT_LT(sim.now() - SimTime::zero(), Duration::millis(10));
}

TEST_F(RpcTest, PartitionDetectedQuickly) {
  topo.set_link_up(client, server, false);
  const auto result = do_call();
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, FailureKind::kPartitioned);
}

TEST_F(RpcTest, CrashDuringFlightLosesRequest) {
  // Crash the server 5ms in: the request (10ms path) is still in flight.
  sim.schedule(Duration::millis(5), [this] { topo.crash(server); });
  const auto result = do_call(Duration::millis(300));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, FailureKind::kTimeout);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(RpcTest, PartitionAfterRequestLosesReply) {
  // Cut the link after the request arrives (>= 12ms covers jitter) but before
  // the reply lands: reply is dropped, caller times out.
  sim.schedule(Duration::millis(13), [this] {
    topo.set_link_up(client, server, false);
  });
  const auto result = do_call(Duration::millis(300));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, FailureKind::kTimeout);
}

TEST_F(RpcTest, LocalCallsAreCheap) {
  net.register_handler(client, "local",
                       [](NodeId, Payload) -> Task<Result<Payload>> {
                         co_return Payload{42};
                       });
  const auto result =
      run_task(sim, net.call_typed<int>(client, client, "local", 0));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result.value(), 42);
  EXPECT_LT(sim.now() - SimTime::zero(), Duration::millis(1));
}

TEST_F(RpcTest, ConcurrentCallsInterleave) {
  std::vector<Result<std::string>> results;
  // Captureless lambda coroutine: captures would dangle once the temporary
  // lambda object dies, so state travels via parameters.
  auto burst = [](RpcNetwork& n, NodeId c, NodeId s,
                  std::vector<Result<std::string>>& out) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      out.push_back(co_await n.call_typed<std::string>(
          c, s, "echo", EchoRequest{std::to_string(i)}));
    }
  };
  // Two clients issuing sequential bursts concurrently.
  sim.spawn(burst(net, client, server, results));
  sim.spawn(burst(net, client, server, results));
  sim.run();
  ASSERT_EQ(results.size(), 6u);
  for (const auto& r : results) EXPECT_TRUE(r.has_value());
}

TEST_F(TopologyTest, DirectOnlyRoutingIgnoresRelays) {
  topo.connect(a, b, Duration::millis(5));
  topo.connect(b, c, Duration::millis(5));
  EXPECT_TRUE(topo.can_communicate(a, c));  // multi-hop default
  topo.set_routing(Topology::Routing::kDirectOnly);
  EXPECT_FALSE(topo.can_communicate(a, c));
  EXPECT_TRUE(topo.can_communicate(a, b));
  EXPECT_EQ(topo.path_latency(a, b), Duration::millis(5));
  topo.set_routing(Topology::Routing::kMultiHop);
  EXPECT_EQ(topo.path_latency(a, c), Duration::millis(10));
}

TEST_F(RpcTest, StatsCountOutcomes) {
  // One success, one fast failure (crashed target), one timeout (crash
  // mid-flight loses the request).
  ASSERT_TRUE(do_call().has_value());
  topo.crash(server);
  ASSERT_FALSE(do_call().has_value());
  topo.restart(server);
  sim.schedule(Duration::millis(5), [this] { topo.crash(server); });
  ASSERT_FALSE(do_call(Duration::millis(200)).has_value());

  const RpcStats& stats = net.stats();
  EXPECT_EQ(stats.calls, 3u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.messages_delivered, 2u);  // the successful round trip
  EXPECT_EQ(stats.messages_dropped, 1u);    // the mid-flight loss
}

TEST_F(TopologyTest, CrashRestartReachabilityRoundTrips) {
  topo.connect(a, b, Duration::millis(5));
  topo.connect(b, c, Duration::millis(5));
  // Round-trip every node through a crash; reachability must come back
  // exactly as it was.
  for (const NodeId victim : topo.nodes()) {
    const bool ab = topo.can_communicate(a, b);
    const bool ac = topo.can_communicate(a, c);
    const bool bc = topo.can_communicate(b, c);
    topo.crash(victim);
    EXPECT_FALSE(topo.can_communicate(victim, victim));
    topo.restart(victim);
    EXPECT_EQ(topo.can_communicate(a, b), ab);
    EXPECT_EQ(topo.can_communicate(a, c), ac);
    EXPECT_EQ(topo.can_communicate(b, c), bc);
  }
}

TEST_F(TopologyTest, CrashKindIsStickyAcrossDoubleCrash) {
  // Crashing an already-down node is a no-op: the kind of the outage in
  // progress does not change, and no second listener dispatch fires.
  int crash_events = 0;
  int restart_events = 0;
  topo.add_liveness_listener(
      {.on_crash = [&](NodeId, Topology::CrashKind) { ++crash_events; },
       .on_restart = [&](NodeId, Topology::CrashKind) { ++restart_events; }});
  topo.crash(a, Topology::CrashKind::kAmnesia);
  topo.crash(a, Topology::CrashKind::kTransient);  // no-op: already down
  EXPECT_EQ(crash_events, 1);
  EXPECT_EQ(topo.last_crash_kind(a), Topology::CrashKind::kAmnesia);
  topo.restart(a);
  topo.restart(a);  // no-op: already up
  EXPECT_EQ(restart_events, 1);
}

TEST_F(TopologyTest, LivenessListenerReceivesCrashKind) {
  std::vector<std::pair<NodeId, Topology::CrashKind>> crashes;
  std::vector<std::pair<NodeId, Topology::CrashKind>> restarts;
  topo.add_liveness_listener(
      {.on_crash =
           [&](NodeId n, Topology::CrashKind k) { crashes.emplace_back(n, k); },
       .on_restart = [&](NodeId n, Topology::CrashKind k) {
         restarts.emplace_back(n, k);
       }});
  topo.crash(a, Topology::CrashKind::kAmnesia);
  topo.restart(a);
  topo.crash(b);  // default: transient
  topo.restart(b);
  ASSERT_EQ(crashes.size(), 2u);
  EXPECT_EQ(crashes[0], std::make_pair(a, Topology::CrashKind::kAmnesia));
  EXPECT_EQ(crashes[1], std::make_pair(b, Topology::CrashKind::kTransient));
  // restart reports the kind that took the node down.
  ASSERT_EQ(restarts.size(), 2u);
  EXPECT_EQ(restarts[0], std::make_pair(a, Topology::CrashKind::kAmnesia));
  EXPECT_EQ(restarts[1], std::make_pair(b, Topology::CrashKind::kTransient));
}

TEST_F(TopologyTest, RemovedLivenessListenerStopsFiring) {
  int first = 0;
  int second = 0;
  const std::size_t token = topo.add_liveness_listener(
      {.on_crash = [&](NodeId, Topology::CrashKind) { ++first; },
       .on_restart = [&](NodeId, Topology::CrashKind) { ++first; }});
  topo.add_liveness_listener(
      {.on_crash = [&](NodeId, Topology::CrashKind) { ++second; },
       .on_restart = [&](NodeId, Topology::CrashKind) { ++second; }});
  topo.crash(a);
  topo.restart(a);
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 2);
  topo.remove_liveness_listener(token);
  topo.crash(a);
  topo.restart(a);
  EXPECT_EQ(first, 2);   // removed: silent
  EXPECT_EQ(second, 4);  // survivor keeps its slot (stable tokens)
}

class ChaosTest : public ::testing::Test {
 protected:
  Simulator sim;
  Topology topo;
  NodeId a = topo.add_node("a");
  NodeId b = topo.add_node("b");
  NodeId c = topo.add_node("c");

  void SetUp() override { topo.connect_full_mesh(Duration::millis(5)); }
};

TEST_F(ChaosTest, CountersMatchInjectedFailures) {
  ChaosOptions options;
  options.mean_uptime = Duration::millis(200);
  options.outage = Duration::millis(50);
  options.crash_bias = 0.5;
  options.deadline = SimTime{} + Duration::seconds(5);
  ChaosInjector chaos(sim, topo, {a, b, c}, 0xc0ffee, options);
  sim.run();
  // Everything healed at the end, and both failure modes were exercised.
  EXPECT_GT(chaos.crashes(), 0u);
  EXPECT_GT(chaos.link_cuts(), 0u);
  EXPECT_EQ(chaos.amnesia_crashes(), 0u);  // bias 0: never drawn
  for (const NodeId n : topo.nodes()) EXPECT_TRUE(topo.is_up(n));
  EXPECT_TRUE(topo.can_communicate(a, b));
  EXPECT_TRUE(topo.can_communicate(a, c));
}

TEST_F(ChaosTest, AmnesiaBiasSplitsCrashKinds) {
  ChaosOptions options;
  options.mean_uptime = Duration::millis(200);
  options.outage = Duration::millis(50);
  options.crash_bias = 1.0;  // crashes only
  options.amnesia_bias = 0.5;
  options.deadline = SimTime{} + Duration::seconds(5);
  std::uint64_t amnesia_seen = 0;
  std::uint64_t transient_seen = 0;
  topo.add_liveness_listener(
      {.on_crash =
           [&](NodeId, Topology::CrashKind k) {
             (k == Topology::CrashKind::kAmnesia ? amnesia_seen
                                                 : transient_seen)++;
           },
       .on_restart = [](NodeId, Topology::CrashKind) {}});
  ChaosInjector chaos(sim, topo, {a, b, c}, 0xc0ffee, options);
  sim.run();
  EXPECT_EQ(chaos.link_cuts(), 0u);
  EXPECT_GT(chaos.amnesia_crashes(), 0u);
  EXPECT_LT(chaos.amnesia_crashes(), chaos.crashes());  // both kinds occurred
  EXPECT_EQ(amnesia_seen, chaos.amnesia_crashes());
  EXPECT_EQ(transient_seen, chaos.crashes() - chaos.amnesia_crashes());
}

TEST_F(ChaosTest, SameSeedIsDeterministic) {
  ChaosOptions options;
  options.mean_uptime = Duration::millis(100);
  options.deadline = SimTime{} + Duration::seconds(3);
  options.amnesia_bias = 0.3;
  auto run_once = [&options]() {
    Simulator sim;
    Topology topo;
    const NodeId x = topo.add_node("x");
    const NodeId y = topo.add_node("y");
    const NodeId z = topo.add_node("z");
    topo.connect_full_mesh(Duration::millis(5));
    ChaosInjector chaos(sim, topo, {x, y, z}, 42, options);
    sim.run();
    return std::make_tuple(chaos.crashes(), chaos.amnesia_crashes(),
                           chaos.link_cuts());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_F(RpcTest, HandlerSeesCallerNode) {
  NodeId seen = NodeId::invalid();
  net.register_handler(server, "who",
                       [&seen](NodeId from, Payload) -> Task<Result<Payload>> {
                         seen = from;
                         co_return Payload{0};
                       });
  run_task(sim, [](RpcNetwork& n, NodeId c, NodeId s) -> Task<void> {
    (void)co_await n.call_typed<int>(c, s, "who", 0);
  }(net, client, server));
  EXPECT_EQ(seen, client);
}

TEST_F(RpcTest, RegistrationLookupRoundTripsForAllMethodsOnAllNodes) {
  // Regression for the string-keyed dispatch era, when the registration key
  // was built fresh per call: every (node, method) registration must be
  // found through both the interned id and the original string, on every
  // node independently.
  const std::vector<std::string> methods = {"svc.alpha", "svc.beta",
                                            "svc.gamma", "svc.delta"};
  const std::vector<NodeId> nodes = {client, server};
  auto handler_returning = [](int value) {
    return [value](NodeId, Payload) -> Task<Result<Payload>> {
      co_return Payload{value};
    };
  };
  int tag = 0;
  for (const NodeId node : nodes) {
    for (const std::string& method : methods) {
      net.register_handler(node, method, handler_returning(tag++));
    }
  }
  for (const NodeId node : nodes) {
    for (const std::string& method : methods) {
      const MethodId id = net.intern(method);
      EXPECT_EQ(net.intern(method), id) << "intern must be idempotent";
      EXPECT_EQ(net.method_name(id), method);
      EXPECT_NE(net.find_handler(node, id), nullptr)
          << topo.name(node) << "/" << method;
    }
  }
  // Unregistered combinations stay empty: ids never bleed across nodes.
  EXPECT_EQ(net.find_handler(client, net.intern("echo")), nullptr);
  EXPECT_NE(net.find_handler(server, net.intern("echo")), nullptr);
  EXPECT_EQ(net.find_handler(server, net.intern("svc.unregistered")), nullptr);
  EXPECT_EQ(net.find_handler(server, MethodId{}), nullptr);

  // Every registered handler is actually dispatchable end to end, and the
  // reply identifies the handler (no cross-node or cross-method mixing).
  int expected = 0;
  for (const NodeId node : nodes) {
    for (const std::string& method : methods) {
      auto reply = run_task(
          sim, net.call_typed<int>(client, node, method, 0));
      ASSERT_TRUE(reply.has_value()) << topo.name(node) << "/" << method;
      EXPECT_EQ(reply.value(), expected++);
    }
  }
}

TEST_F(RpcTest, PayloadSurvivesHandlerSuspension) {
  // The request Payload (a pooled box) must stay alive across the handler's
  // co_await suspension points — the box is owned by the handler frame, not
  // by the delivery event that handed it over.
  net.register_handler(
      server, "slow.echo",
      [this](NodeId, Payload request) -> Task<Result<Payload>> {
        co_await sim.delay(Duration::millis(50));  // outlive delivery event
        auto req = payload_cast<EchoRequest>(std::move(request));
        co_await sim.delay(Duration::millis(50));  // outlive the cast too
        co_return Payload{req.text + "!"};
      });
  auto reply = run_task(sim, net.call_typed<std::string>(
                                 client, server, "slow.echo",
                                 EchoRequest{"kept"}, Duration::seconds(5)));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply.value(), "kept!");
}

}  // namespace
}  // namespace weakset
