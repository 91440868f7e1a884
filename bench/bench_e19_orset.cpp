// E19 — multi-master availability: OR-Set replication (src/crdt, DESIGN.md
// decision 16) against home-primary replication on the identical placement,
// as partitions and replica counts sweep.
//
// One scenario per cell: one fragment anchored on server0 with R-1 replica
// hosts, 32 seeded members, then a 2-second open write window (adds with a
// 30% remove bias every 4ms) from a single client. Partition episodes cut
// the anchor away from {client, replicas} for 300ms each; home-primary mode
// must route every write to the unreachable anchor, OR-Set accepts it at the
// nearest host that still answers and repairs by anti-entropy after heal.
//
// Reported per row:
//   availability  — acked / attempted writes (the headline: home-primary
//                   availability drops with each episode, OR-Set stays 1.0)
//   staleness_ms  — last heal -> all hosts agree (the anti-entropy window;
//                   OR-Set convergence is spec::check_converged, home mode
//                   is replica catch-up to the primary)
//   merge_ops     — remote dot ops applied by pulls (OR-Set) or replica
//                   pull ops applied (home): the repair bill
//   snapshot_joins / failovers — full-state joins forced by cursor expiry,
//                   and writes that needed a non-nearest host
//
// All quantities are simulated time and deterministic: same binary, same
// seed — byte-identical metrics export (the CI gate cmp's a double run).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace weakset::bench {
namespace {

constexpr int kSeedMembers = 32;
constexpr Duration kWriteInterval = Duration::millis(4);
constexpr Duration kEpisodeLength = Duration::millis(300);

/// Like bench_common::World, but the collection mode and the per-row
/// metrics sink are part of the build (row-local percentiles and counter
/// deltas must not accumulate across sweep rows the way obs::global()
/// would).
struct OrSetWorld {
  OrSetWorld(int n_servers, std::uint64_t seed) {
    client_node = topo.add_node("client");
    for (int i = 0; i < n_servers; ++i) {
      servers.push_back(topo.add_node("server" + std::to_string(i)));
    }
    for (int i = 0; i < n_servers; ++i) {
      topo.connect(client_node, servers[static_cast<std::size_t>(i)],
                   Duration::millis(2 + 3 * i));
    }
    for (int i = 0; i < n_servers; ++i) {
      for (int j = i + 1; j < n_servers; ++j) {
        topo.connect(servers[static_cast<std::size_t>(i)],
                     servers[static_cast<std::size_t>(j)],
                     Duration::millis(10));
      }
    }
    topo.set_routing(Topology::Routing::kDirectOnly);
    net = std::make_unique<RpcNetwork>(sim, topo, Rng{seed});
    repo = std::make_unique<Repository>(*net);
    StoreServerOptions options;
    options.pull_interval = Duration::millis(20);
    options.metrics = &metrics;
    for (const NodeId node : servers) repo->add_server(node, options);
  }
  ~OrSetWorld() { repo->stop_all_daemons(); }

  Simulator sim;
  Topology topo;
  obs::MetricsRegistry metrics;
  NodeId client_node;
  std::vector<NodeId> servers;
  std::unique_ptr<RpcNetwork> net;
  std::unique_ptr<Repository> repo;
};

struct WriteCounts {
  std::uint64_t attempts = 0;
  std::uint64_t acks = 0;
};

/// Open-loop writer: one membership mutation per tick until `until`.
Task<void> write_process(OrSetWorld& world, CollectionId coll,
                         std::vector<ObjectRef>& members, SimTime until,
                         std::uint64_t seed, WriteCounts& counts) {
  Rng rng{seed};
  // Bounded RPC timeout: a write in flight when a partition cuts its link
  // is dropped on the wire — the default 2s timeout would stall the
  // closed-loop writer for most of an episode.
  RepositoryClient client{*world.repo, world.client_node,
                          [&world] {
                            ClientOptions o;
                            o.metrics = &world.metrics;
                            o.rpc_timeout = Duration::millis(50);
                            return o;
                          }()};
  std::uint64_t next = 1'000'000;
  while (world.sim.now() < until) {
    co_await world.sim.delay(kWriteInterval);
    if (world.sim.now() >= until) co_return;
    ++counts.attempts;
    if (!members.empty() && rng.bernoulli(0.3)) {
      const ObjectRef victim = rng.pick(members);
      const auto removed = co_await client.remove(coll, victim);
      if (removed.has_value()) ++counts.acks;
    } else {
      const NodeId home = rng.pick(world.servers);
      const ObjectRef ref =
          world.repo->create_object(home, "w-" + std::to_string(next++));
      members.push_back(ref);
      const auto added = co_await client.add(coll, ref);
      if (added.has_value()) ++counts.acks;
    }
  }
}

/// All hosts of the fragment agree on the member sequence. For OR-Set that
/// is the convergence spec; for home-primary it is replica catch-up.
bool hosts_agree(OrSetWorld& world, CollectionId coll, ReplicationMode mode) {
  if (mode == ReplicationMode::kOrSet) {
    return spec::check_converged(
               spec::orset_fragment_members(*world.repo, coll, 0))
        .satisfied();
  }
  std::vector<ObjectRef> primary =
      world.repo->server_at(world.servers[0])->collection(coll)->members();
  std::sort(primary.begin(), primary.end());
  for (std::size_t i = 1; i < world.servers.size(); ++i) {
    std::vector<ObjectRef> replica =
        world.repo->server_at(world.servers[i])->collection(coll)->members();
    std::sort(replica.begin(), replica.end());
    if (replica != primary) return false;
  }
  return true;
}

void BM_OrSetAvailability(benchmark::State& state) {
  const ReplicationMode mode = state.range(0) == 1 ? ReplicationMode::kOrSet
                                                   : ReplicationMode::kHomePrimary;
  const char* mode_name = state.range(0) == 1 ? "orset" : "home-primary";
  const auto replicas = static_cast<int>(state.range(1));
  const auto episodes = static_cast<int>(state.range(2));

  for (auto _ : state) {
    OrSetWorld world{replicas, /*seed=*/0xe19};
    const CollectionId coll =
        world.repo->create_collection({world.servers[0]}, mode);
    for (std::size_t i = 1; i < world.servers.size(); ++i) {
      world.repo->add_replica(coll, 0, world.servers[i]);
    }
    std::vector<ObjectRef> members;
    for (int i = 0; i < kSeedMembers; ++i) {
      const NodeId home =
          world.servers[static_cast<std::size_t>(i) % world.servers.size()];
      const ObjectRef ref =
          world.repo->create_object(home, "seed-" + std::to_string(i));
      members.push_back(ref);
      if (mode == ReplicationMode::kOrSet) {
        world.repo->server_at(world.servers[0])
            ->seed_orset_member(coll, ref);
      } else {
        world.repo->seed_member(coll, ref);
      }
    }
    // Replicas/peers absorb the seeds before the write window opens.
    world.sim.run_until(SimTime{} + Duration::millis(200));

    // Partition episodes: the anchor alone on one side, the client and
    // every replica host on the other. Evenly spaced inside the window.
    SimTime last_heal = world.sim.now();
    for (int e = 0; e < episodes; ++e) {
      const Duration start = Duration::millis(400 + 700 * e);
      const SimTime heal_at = SimTime{} + start + kEpisodeLength;
      world.sim.schedule(start - (world.sim.now() - SimTime{}),
                         [&world] {
                           std::vector<NodeId> rest{world.client_node};
                           rest.insert(rest.end(),
                                       world.servers.begin() + 1,
                                       world.servers.end());
                           world.topo.partition(
                               {{world.servers[0]}, rest});
                         });
      world.sim.schedule(heal_at - world.sim.now(),
                         [&world] { world.topo.heal(); });
      if (heal_at > last_heal) last_heal = heal_at;
    }

    const std::uint64_t pull_ops_before =
        world.metrics.counter("store.orset.pull_ops_applied") +
        world.metrics.counter("store.replica.pull_ops_applied");
    const std::uint64_t joins_before =
        world.metrics.counter("store.orset.snapshot_joins") +
        world.metrics.counter("store.replica.snapshot_installs");

    WriteCounts counts;
    const SimTime write_end = SimTime{} + Duration::millis(2200);
    world.sim.spawn(write_process(world, coll, members, write_end,
                                  /*seed=*/0x5eed, counts));
    world.sim.run_until(write_end);
    if (world.sim.now() > last_heal) last_heal = world.sim.now();

    // Staleness window: last heal (or end of writes) -> every host agrees.
    const Duration limit = Duration::seconds(5);
    while (!hosts_agree(world, coll, mode) &&
           world.sim.now() - last_heal < limit) {
      world.sim.run_until(world.sim.now() + Duration::millis(1));
    }
    const Duration staleness = world.sim.now() - last_heal;
    const bool converged = hosts_agree(world, coll, mode);

    const double merge_ops = static_cast<double>(
        world.metrics.counter("store.orset.pull_ops_applied") +
        world.metrics.counter("store.replica.pull_ops_applied") -
        pull_ops_before);
    const double joins = static_cast<double>(
        world.metrics.counter("store.orset.snapshot_joins") +
        world.metrics.counter("store.replica.snapshot_installs") -
        joins_before);

    state.counters["attempts"] = static_cast<double>(counts.attempts);
    state.counters["acks"] = static_cast<double>(counts.acks);
    state.counters["availability"] =
        counts.attempts == 0
            ? 0.0
            : static_cast<double>(counts.acks) /
                  static_cast<double>(counts.attempts);
    state.counters["staleness_ms"] =
        static_cast<double>(staleness.count_nanos()) / 1e6;
    state.counters["converged"] = converged ? 1.0 : 0.0;
    state.counters["merge_ops"] = merge_ops;
    state.counters["snapshot_joins"] = joins;
    state.counters["failovers"] = static_cast<double>(
        world.metrics.counter("store.client.orset_write_failovers"));

    // Mirror the row's aggregates into the process-global registry (the
    // --metrics-out export): that is what the CI determinism cmp reads, so
    // the whole sweep's outcome is part of the byte-identical contract.
    const std::string prefix = "e19." + std::string{mode_name} + ".r" +
                               std::to_string(replicas) + ".p" +
                               std::to_string(episodes) + ".";
    obs::MetricsRegistry& global = obs::global();
    global.add(prefix + "attempts", counts.attempts);
    global.add(prefix + "acks", counts.acks);
    global.add(prefix + "staleness_us",
               static_cast<std::uint64_t>(staleness.count_nanos() / 1000));
    global.add(prefix + "merge_ops",
               static_cast<std::uint64_t>(merge_ops));
    global.add(prefix + "converged", converged ? 1 : 0);

    state.SetLabel(std::string{mode_name});
  }
}
// mode (0 = home-primary, 1 = OR-Set) x replica count x partition episodes.
BENCHMARK(BM_OrSetAvailability)
    ->ArgsProduct({{0, 1}, {2, 3, 5}, {0, 1, 2}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace weakset::bench

WEAKSET_BENCHMARK_MAIN();
