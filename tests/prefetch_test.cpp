// The prefetch pipeline: window=1 must be exactly the serial iterator,
// larger windows must change timing only — never yield order, never which
// elements are yielded — and the batched path must actually pay off over a
// far-server repository (the ISSUE's 2x acceptance criterion).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/iterator.hpp"
#include "core/local_view.hpp"
#include "core/weak_set.hpp"
#include "obs/metrics.hpp"

namespace weakset {
namespace {

ObjectRef ref(std::uint64_t id) { return ObjectRef{ObjectId{id}, NodeId{0}}; }

/// An immutable 10-element local set with a per-fetch latency large enough
/// that pipelining is observable in simulated time.
class PrefetchLocalTest : public ::testing::Test {
 protected:
  PrefetchLocalTest() : view(sim) {
    for (std::uint64_t i = 0; i < 10; ++i) {
      view.add(ref(i), "p" + std::to_string(i));
    }
    view.set_latencies(Duration::millis(1), Duration::millis(8));
  }

  DrainResult drain_with(Semantics semantics, std::size_t window,
                         IteratorOptions options = {}) {
    options.prefetch_window = window;
    auto iterator = make_elements_iterator(view, semantics, options);
    DrainResult result = run_task(sim, drain(*iterator));
    last_stats = iterator->stats();
    sim.run();  // unwind any still-in-flight batch workers
    return result;
  }

  Simulator sim;
  LocalSetView view;
  IteratorStats last_stats;
};

TEST_F(PrefetchLocalTest, WindowOneMatchesSerialYieldOrderExactly) {
  // Window 1 is the serial path (no prefetcher is even constructed); any
  // larger window must still consume candidates in the same pick order.
  for (const Semantics semantics :
       {Semantics::kFig1Immutable, Semantics::kFig3ImmutableFailAware,
        Semantics::kFig4Snapshot, Semantics::kFig5GrowOnlyPessimistic,
        Semantics::kFig6Optimistic}) {
    const DrainResult serial = drain_with(semantics, 1);
    const IteratorStats serial_stats = last_stats;
    const DrainResult piped = drain_with(semantics, 8);

    ASSERT_TRUE(serial.finished()) << to_string(semantics);
    ASSERT_TRUE(piped.finished()) << to_string(semantics);
    ASSERT_EQ(serial.count(), piped.count()) << to_string(semantics);
    for (std::size_t i = 0; i < serial.count(); ++i) {
      EXPECT_EQ(serial.elements()[i].first, piped.elements()[i].first)
          << to_string(semantics) << " position " << i;
      EXPECT_EQ(serial.elements()[i].second.data(),
                piped.elements()[i].second.data());
    }
    // The serial run must not have touched the pipeline at all.
    EXPECT_EQ(serial_stats.prefetch_hits, 0u);
    EXPECT_EQ(serial_stats.prefetch_misses, 0u);
    EXPECT_EQ(serial_stats.prefetch_batches, 0u);
    EXPECT_EQ(serial_stats.prefetch_invalidated, 0u);
  }
}

TEST_F(PrefetchLocalTest, PipeliningShortensImmutableDrain) {
  const SimTime start = sim.now();
  (void)drain_with(Semantics::kFig1Immutable, 1);
  const Duration serial_time = sim.now() - start;

  const SimTime mid = sim.now();
  (void)drain_with(Semantics::kFig1Immutable, 8);
  const Duration piped_time = sim.now() - mid;

  // LocalSetView's default fetch_many is a serial loop, so the win here is
  // only overlap of the batch worker with consumption — but it must be a win.
  EXPECT_LT(piped_time, serial_time);
}

TEST_F(PrefetchLocalTest, StatsCountersAddUp) {
  const DrainResult result = drain_with(Semantics::kFig1Immutable, 8);
  ASSERT_TRUE(result.finished());
  ASSERT_EQ(result.count(), 10u);
  // Every consumed fetch is classified as exactly one of hit/miss.
  EXPECT_EQ(last_stats.fetch_attempts, 10u);
  EXPECT_EQ(last_stats.prefetch_hits + last_stats.prefetch_misses,
            last_stats.fetch_attempts);
  // A benign run prefetches everything it consumes, in real batches.
  EXPECT_GT(last_stats.prefetch_hits, 0u);
  EXPECT_GE(last_stats.prefetch_batches, 1u);
  EXPECT_EQ(last_stats.prefetch_batched_objects, 10u);
  EXPECT_EQ(last_stats.prefetch_invalidated, 0u);
  EXPECT_EQ(last_stats.fetch_failures, 0u);
}

TEST_F(PrefetchLocalTest, Fig6DoesNotYieldPrefetchedThenRemovedElement) {
  // The whole window for all 10 elements is issued during the first
  // invocation. Element 7 is then removed while its payload sits prefetched;
  // the iterator observes the removal on a later membership read and must
  // not yield it.
  sim.schedule(Duration::millis(20), [this] { view.remove(ref(7)); });
  const DrainResult result = drain_with(Semantics::kFig6Optimistic, 8);
  ASSERT_TRUE(result.finished());
  EXPECT_EQ(result.count(), 9u);
  for (const auto& [r, v] : result.elements()) EXPECT_NE(r, ref(7));
  // The prefetched payload was discarded, not served.
  EXPECT_GE(last_stats.prefetch_invalidated, 1u);
}

TEST_F(PrefetchLocalTest, Fig4DoesNotYieldPrefetchedElementTurnedUnreachable) {
  // Fig 4 iterates the snapshot, so a bare removal after the cut is still
  // yielded (spec-conformant — the snapshot is the membership authority).
  // But reachability is revalidated at yield time against the *live* failure
  // detector: an element that became unreachable after its payload was
  // prefetched must not be served from the window. Serial fig4 fails the
  // run at that point; pipelined fig4 must do exactly the same. Window 12
  // puts all 10 payloads (element 9 included) in flight on the very first
  // invocation, before the scripted partition hits.
  sim.schedule(Duration::millis(20), [this] {
    view.remove(ref(9));
    view.set_reachable(ref(9), false);
  });
  const DrainResult result = drain_with(Semantics::kFig4Snapshot, 12);
  EXPECT_FALSE(result.finished());
  ASSERT_TRUE(result.failure().has_value());
  EXPECT_EQ(result.failure()->kind, FailureKind::kUnreachable);
  EXPECT_EQ(result.count(), 9u);
  for (const auto& [r, v] : result.elements()) EXPECT_NE(r, ref(9));
  EXPECT_GE(last_stats.prefetch_invalidated, 1u);
  EXPECT_GE(last_stats.skipped_unreachable, 1u);
}

/// Decorates a LocalSetView: removes members 8 and `nine` the moment the
/// batched fetch carrying member 8 is issued, answers that fetch 20ms late,
/// and counts fetch_many calls in flight. The lag makes the worker for 8
/// outlast one that 9 alone rides in, when 9 lives on another home.
class RemoveOnRefillView final : public SetView {
 public:
  RemoveOnRefillView(LocalSetView& inner, ObjectRef nine)
      : inner_(inner), nine_(nine) {}

  Task<Result<std::vector<ObjectRef>>> read_members() override {
    return inner_.read_members();
  }
  Task<Result<std::vector<ObjectRef>>> snapshot_atomic(
      std::function<void()> on_cut) override {
    return inner_.snapshot_atomic(std::move(on_cut));
  }
  Task<Result<void>> freeze() override { return inner_.freeze(); }
  Task<void> unfreeze() override { return inner_.unfreeze(); }
  Task<Result<void>> pin_grow_only() override {
    return inner_.pin_grow_only();
  }
  Task<void> unpin_grow_only() override { return inner_.unpin_grow_only(); }
  [[nodiscard]] bool is_reachable(ObjectRef r) const override {
    return inner_.is_reachable(r);
  }
  [[nodiscard]] std::optional<Duration> distance(ObjectRef r) const override {
    return inner_.distance(r);
  }
  Task<Result<VersionedValue>> fetch(ObjectRef r) override {
    return inner_.fetch(r);
  }
  Task<std::vector<Result<VersionedValue>>> fetch_many(
      std::vector<ObjectRef> refs) override {
    const bool carries_eight =
        std::find(refs.begin(), refs.end(), ref(8)) != refs.end();
    if (carries_eight) {
      inner_.remove(ref(8));
      inner_.remove(nine_);
    }
    return counted_fetch_many(std::move(refs), carries_eight);
  }
  [[nodiscard]] Simulator& sim() override { return inner_.sim(); }

  int in_flight = 0;

 private:
  Task<std::vector<Result<VersionedValue>>> counted_fetch_many(
      std::vector<ObjectRef> refs, bool lagged) {
    ++in_flight;
    if (lagged) co_await inner_.sim().delay(Duration::millis(20));
    std::vector<Result<VersionedValue>> out =
        co_await inner_.fetch_many(std::move(refs));
    --in_flight;
    co_return out;
  }

  LocalSetView& inner_;
  ObjectRef nine_;
};

/// Drains a 10-element Fig 6 run at window 8 in which the refill carrying
/// members 8 and 9 removes both, homing member 9 at `home_of_9`. Checks that
/// no batch is in flight once the run has finished.
void expect_no_batch_in_flight_after_terminal_step(NodeId home_of_9) {
  Simulator sim;
  LocalSetView local{sim};
  for (std::uint64_t i = 0; i < 10; ++i) {
    const ObjectRef r = i == 9 ? ObjectRef{ObjectId{i}, home_of_9} : ref(i);
    local.add(r, "p" + std::to_string(i));
  }
  local.set_latencies(Duration::millis(1), Duration::millis(8));
  RemoveOnRefillView view{local, ObjectRef{ObjectId{9}, home_of_9}};
  IteratorOptions options;
  options.prefetch_window = 8;
  auto iterator =
      make_elements_iterator(view, Semantics::kFig6Optimistic, options);
  const DrainResult result = run_task(sim, drain(*iterator));
  EXPECT_EQ(view.in_flight, 0);
  ASSERT_TRUE(result.finished());
  EXPECT_EQ(result.count(), 8u);
  EXPECT_GE(iterator->stats().prefetch_invalidated, 2u);
  sim.run();
}

TEST(PrefetchQuiesceTest, NoBatchInFlightAfterTerminalStep) {
  // Window 8 prefetches members 0-7, then refills with {8, 9} once half of
  // it is consumed. That refill removes 8 and 9, so the next sync discards
  // both entries while their batch is still in flight. The terminal step
  // must still wait that batch out: afterwards the caller may destroy the
  // view the batch worker is using.
  expect_no_batch_in_flight_after_terminal_step(NodeId{0});
}

TEST(PrefetchQuiesceTest, NoBatchInFlightAfterTerminalStepAcrossTwoHomes) {
  // As above, but 8 and 9 live on different homes, so the refill goes out
  // as two batch workers and sync discards every slot of both. The worker
  // for 8 answers last, so waiting only for the refill's last slot (9's)
  // would leave it in flight.
  expect_no_batch_in_flight_after_terminal_step(NodeId{1});
}

/// The acceptance world: a client far (100ms) from all four servers, the
/// servers 30ms from each other, 200 objects homed round-robin.
class PrefetchRepoTest : public ::testing::Test {
 protected:
  PrefetchRepoTest() {
    client_node = topo.add_node("client");
    for (int i = 0; i < 4; ++i) {
      servers.push_back(topo.add_node("server" + std::to_string(i)));
    }
    for (std::size_t i = 0; i < servers.size(); ++i) {
      topo.connect(client_node, servers[i], Duration::millis(100));
      for (std::size_t j = i + 1; j < servers.size(); ++j) {
        topo.connect(servers[i], servers[j], Duration::millis(30));
      }
    }
    for (const NodeId node : servers) repo.add_server(node);
    collection = repo.create_collection({servers[0]});
    for (int i = 0; i < 200; ++i) {
      const ObjectRef obj = repo.create_object(
          servers[static_cast<std::size_t>(i) % servers.size()],
          "payload" + std::to_string(i));
      repo.seed_member(*collection, obj);
    }
  }

  ~PrefetchRepoTest() override {
    repo.stop_all_daemons();
    sim.run();
  }

  Duration timed_drain(std::size_t window) {
    RepositoryClient client{repo, client_node};
    WeakSet set{client, *collection};
    IteratorOptions options;
    options.prefetch_window = window;
    auto iterator = set.elements(Semantics::kFig1Immutable, options);
    const SimTime start = sim.now();
    const DrainResult result = run_task(sim, drain(*iterator));
    const Duration elapsed = sim.now() - start;
    EXPECT_TRUE(result.finished());
    EXPECT_EQ(result.count(), 200u);
    last_stats = iterator->stats();
    return elapsed;
  }

  Simulator sim;
  Topology topo;
  NodeId client_node;
  std::vector<NodeId> servers;
  RpcNetwork net{sim, topo, Rng{7}};
  Repository repo{net};
  std::optional<CollectionId> collection;
  IteratorStats last_stats;
};

TEST_F(PrefetchRepoTest, WindowEightAtLeastHalvesFarDrainTime) {
  const Duration serial = timed_drain(1);
  const Duration piped = timed_drain(8);
  // The ISSUE's acceptance bar: >= 2x less simulated time. (In practice the
  // win is far larger: ~8 fetches per window share two RTTs per home node.)
  EXPECT_GE(serial.count_nanos(), piped.count_nanos() * 2)
      << "serial " << to_string(serial) << " vs piped " << to_string(piped);
  // The pipelined run really used multi-object batches.
  EXPECT_GT(last_stats.prefetch_batches, 0u);
  EXPECT_GT(last_stats.prefetch_batched_objects, last_stats.prefetch_batches);
}

TEST_F(PrefetchRepoTest, BatchedFetchSurvivesYieldOrderConformance) {
  RepositoryClient client{repo, client_node};
  WeakSet set{client, *collection};
  IteratorOptions serial_options;
  serial_options.prefetch_window = 1;
  auto serial_it = set.elements(Semantics::kFig6Optimistic, serial_options);
  const DrainResult serial = run_task(sim, drain(*serial_it));

  IteratorOptions piped_options;
  piped_options.prefetch_window = 8;
  auto piped_it = set.elements(Semantics::kFig6Optimistic, piped_options);
  const DrainResult piped = run_task(sim, drain(*piped_it));

  ASSERT_TRUE(serial.finished());
  ASSERT_TRUE(piped.finished());
  ASSERT_EQ(serial.count(), piped.count());
  for (std::size_t i = 0; i < serial.count(); ++i) {
    EXPECT_EQ(serial.elements()[i].first, piped.elements()[i].first);
  }
}

/// A client 2ms from a near server, which holds the membership, and 100ms
/// from a far one; 16 objects homed alternately near and far, near first.
class PrefetchNearFarTest : public ::testing::Test {
 protected:
  PrefetchNearFarTest() {
    client_node = topo.add_node("client");
    near = topo.add_node("near");
    far = topo.add_node("far");
    topo.connect(client_node, near, Duration::millis(2));
    topo.connect(client_node, far, Duration::millis(100));
    topo.connect(near, far, Duration::millis(100));
    repo.add_server(near);
    repo.add_server(far);
    collection = repo.create_collection({near});
    for (int i = 0; i < 16; ++i) {
      const ObjectRef obj = repo.create_object(i % 2 == 0 ? near : far,
                                               "payload" + std::to_string(i));
      repo.seed_member(*collection, obj);
    }
  }

  ~PrefetchNearFarTest() override {
    repo.stop_all_daemons();
    sim.run();
  }

  /// Time to the first yield of a Fig 1 drain at `window`; drains the rest
  /// and counts the store.fetch_batch RPCs the whole run sent.
  Duration first_yield(std::size_t window) {
    obs::MetricsRegistry metrics;
    ClientOptions client_options;
    client_options.metrics = &metrics;
    RepositoryClient client{repo, client_node, client_options};
    WeakSet set{client, *collection};
    IteratorOptions options;
    options.prefetch_window = window;
    auto iterator = set.elements(Semantics::kFig1Immutable, options);
    const SimTime start = sim.now();
    const Step step = run_task(sim, iterator->next());
    const Duration elapsed = sim.now() - start;
    EXPECT_TRUE(step.is_yield());
    EXPECT_EQ(step.ref().home(), near);
    const DrainResult rest = run_task(sim, drain(*iterator));
    EXPECT_TRUE(rest.finished());
    EXPECT_EQ(rest.count(), 15u);
    fetch_batch_rpcs = metrics.counter("store.client.fetch_batch_rpcs");
    return elapsed;
  }

  Simulator sim;
  Topology topo;
  NodeId client_node;
  NodeId near;
  NodeId far;
  RpcNetwork net{sim, topo, Rng{7}};
  Repository repo{net};
  std::optional<CollectionId> collection;
  std::uint64_t fetch_batch_rpcs = 0;
};

TEST_F(PrefetchNearFarTest, NearElementDoesNotWaitForFarHome) {
  // Window 8's first refill spans both homes. Its near element must yield
  // after one membership read plus the near round trip, as the serial path
  // does, not after the far home's 200ms round trip.
  const Duration serial = first_yield(1);
  const Duration piped = first_yield(8);
  EXPECT_LE(piped, serial + Duration::millis(1))
      << "serial " << to_string(serial) << " vs piped " << to_string(piped);
  EXPECT_LT(piped, Duration::millis(50)) << to_string(piped);
  // One store.fetch_batch per home per refill: splitting the refill by home
  // sends exactly the RPCs one mixed-home batch did.
  EXPECT_EQ(fetch_batch_rpcs, 6u);
}

}  // namespace
}  // namespace weakset
