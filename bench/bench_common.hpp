#pragma once

// Shared scaffolding for the experiment benchmarks: a deterministic
// wide-area world builder and workload processes.
//
// All measurements are of *simulated* time (the virtual clock), which is the
// quantity the paper's claims are about. google-benchmark is used as the
// runner/reporter; each experiment pins Iterations(1) (runs are
// deterministic) and reports its metrics through counters.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/weak_set.hpp"
#include "fs/dist_fs.hpp"
#include "obs/metrics.hpp"
#include "query/scan.hpp"
#include "spec/repo_truth.hpp"
#include "spec/specs.hpp"

/// Drop-in replacement for BENCHMARK_MAIN() that understands
/// --metrics-out=FILE: the flag is stripped before google-benchmark sees the
/// argv (it rejects unknown flags). On exit the process-global metrics
/// registry — where every component deposits its telemetry by default — is
/// exported as JSON. Runs are deterministic in simulated time, so two
/// invocations with the same seed produce byte-identical files.
#define WEAKSET_BENCHMARK_MAIN()                                             \
  int main(int argc, char** argv) {                                          \
    const std::optional<std::string> weakset_metrics_out =                   \
        ::weakset::obs::extract_metrics_out(argc, argv);                     \
    ::benchmark::Initialize(&argc, argv);                                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;      \
    ::benchmark::RunSpecifiedBenchmarks();                                   \
    ::benchmark::Shutdown();                                                 \
    if (weakset_metrics_out &&                                               \
        !::weakset::obs::global().write_json_file(*weakset_metrics_out)) {   \
      return 1;                                                              \
    }                                                                        \
    return 0;                                                                \
  }                                                                          \
  int main(int, char**)

namespace weakset::bench {

struct WorldConfig {
  int servers = 4;
  /// Client-to-server latency ramps linearly from `near` to `far` across the
  /// servers (a campus disk next door through an overseas archive).
  Duration near = Duration::millis(2);
  Duration far = Duration::millis(100);
  /// Server-to-server latency.
  Duration mesh = Duration::millis(30);
  std::uint64_t seed = 1;
  StoreServerOptions server_options = {};
};

/// One self-contained simulated deployment: topology, RPC fabric,
/// repository, servers, and a client node.
class World {
 public:
  explicit World(const WorldConfig& config) {
    config_ = config;
    client_node = topo.add_node("client");
    for (int i = 0; i < config.servers; ++i) {
      servers.push_back(topo.add_node("server" + std::to_string(i)));
    }
    for (int i = 0; i < config.servers; ++i) {
      topo.connect(client_node, servers[static_cast<std::size_t>(i)],
                   client_latency(i));
    }
    for (int i = 0; i < config.servers; ++i) {
      for (int j = i + 1; j < config.servers; ++j) {
        topo.connect(servers[static_cast<std::size_t>(i)],
                     servers[static_cast<std::size_t>(j)], config.mesh);
      }
    }
    // Direct-only routing keeps the configured latencies authoritative (no
    // surprise relaying through nearer nodes).
    topo.set_routing(Topology::Routing::kDirectOnly);
    net = std::make_unique<RpcNetwork>(sim, topo, Rng{config.seed});
    repo = std::make_unique<Repository>(*net);
    for (const NodeId node : servers) {
      repo->add_server(node, config.server_options);
    }
  }
  ~World() { repo->stop_all_daemons(); }

  [[nodiscard]] Duration client_latency(int server_index) const {
    if (config_.servers <= 1) return config_.near;
    const auto span = config_.far - config_.near;
    return config_.near +
           Duration::nanos(span.count_nanos() * server_index /
                           (config_.servers - 1));
  }

  /// Creates a weak set with `n` objects homed round-robin over the servers.
  CollectionId make_collection(int n_objects, int fragments = 1) {
    std::vector<NodeId> primaries;
    for (int f = 0; f < fragments; ++f) {
      primaries.push_back(servers[static_cast<std::size_t>(f) %
                                  servers.size()]);
    }
    const CollectionId id = repo->create_collection(primaries);
    for (int i = 0; i < n_objects; ++i) {
      const NodeId home =
          servers[static_cast<std::size_t>(i) % servers.size()];
      const ObjectRef ref =
          repo->create_object(home, "object-" + std::to_string(i));
      objects.push_back(ref);
      repo->seed_member(id, ref);
    }
    return id;
  }

  /// Spawns a churn process: adds (and optionally removes) members at the
  /// given mean interval until `until`. Mutations originate at servers[0].
  void spawn_churn(CollectionId id, Duration mean_interval, double remove_bias,
                   SimTime until, std::uint64_t seed) {
    sim.spawn(churn_process(*this, id, mean_interval, remove_bias, until,
                            seed));
  }

  Simulator sim;
  Topology topo;
  NodeId client_node;
  std::vector<NodeId> servers;
  std::vector<ObjectRef> objects;
  std::unique_ptr<RpcNetwork> net;
  std::unique_ptr<Repository> repo;
  std::uint64_t churn_adds = 0;
  std::uint64_t churn_removes = 0;

 private:
  WorldConfig config_;

  static Task<void> churn_process(World& world, CollectionId id,
                                  Duration mean_interval, double remove_bias,
                                  SimTime until, std::uint64_t seed) {
    Rng rng{seed};
    RepositoryClient mutator{*world.repo, world.servers[0]};
    std::uint64_t next = 1'000'000;  // fresh object ids' payload tag
    while (world.sim.now() < until) {
      co_await world.sim.delay(rng.exponential(mean_interval));
      if (world.sim.now() >= until) co_return;
      if (!world.objects.empty() && rng.bernoulli(remove_bias)) {
        const ObjectRef victim = rng.pick(world.objects);
        const auto removed = co_await mutator.remove(id, victim);
        if (removed && removed.value()) ++world.churn_removes;
      } else {
        const NodeId home = rng.pick(world.servers);
        const ObjectRef ref = world.repo->create_object(
            home, "churn-" + std::to_string(next++));
        world.objects.push_back(ref);
        const auto added = co_await mutator.add(id, ref);
        if (added && added.value()) ++world.churn_adds;
      }
    }
  }
};

}  // namespace weakset::bench
