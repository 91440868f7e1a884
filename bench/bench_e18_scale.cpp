// E18 — population scale: a hundred thousand client sessions against a
// four-server repository, with and without admission control (DESIGN.md
// decision 15).
//
// The load engine (src/load) spawns open-loop sessions — Poisson arrivals
// over a fixed window, Zipfian collection popularity inside per-tenant
// namespaces, an insert/remove/iterate op mix — multiplexed over four
// gateway nodes, so 100k sessions cost 100k coroutines, not 100k topology
// nodes. The arrival window is fixed while the session count sweeps
// 1k -> 100k, so offered load scales with the row: the 1k row idles below
// server capacity and the 100k row offers a sustained multiple of it.
//
// Swept against three admission policies:
//
//   unbounded   — the historical serve-everything model: every request
//                 queues until a service slot frees. Under overload the
//                 queue (and queue wait) grows without bound until client
//                 RPC timeouts become the only back-pressure.
//   reject      — bounded per-tenant queues, tail drop: arrivals beyond the
//                 bound get an explicit kOverloaded rejection immediately.
//   shed-oldest — bounded queues, head drop: the arrival displaces the
//                 longest-waiting request (most likely already abandoned by
//                 its caller).
//
// Reported per row: offered/goodput rates (simulated ops/s), op latency
// p50/p95/p99, shed and admitted counts, and the maximum per-tenant queue
// depth. Expected shape: goodput saturates at capacity while offered load
// keeps climbing; the bounded policies hold p99 and queue depth flat where
// unbounded lets both collapse toward the RPC timeout.
//
// All quantities are simulated time and deterministic: same binary, same
// seed — byte-identical metrics export (the CI gate cmp's a double run).
//
// --rebalance variant: sessions resolve placement through the directory
// service (one DirectoryClient per gateway) and a least-loaded rebalancer
// feeds on the demand windows this very workload generates — every tenant's
// most popular collection lands on server 0 at build time (base % servers ==
// rank), so the Zipfian traffic makes server 0 the hotspot and the policy
// has real moves to find. Rows are labelled "<policy>+rebalance" and mirror
// under the e18r.* prefix, so the default sweep (and its committed
// BENCH_scale.json baseline) is untouched.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "load/workload.hpp"
#include "placement/directory.hpp"
#include "placement/migration.hpp"
#include "placement/rebalancer.hpp"
#include "store/admission.hpp"

namespace weakset::bench {
namespace {

constexpr int kServers = 4;
constexpr int kGateways = 4;

/// True when --rebalance was passed: route sessions through the directory
/// service with the least-loaded policy active.
bool& rebalance_flag() {
  static bool on = false;
  return on;
}

/// Strips a bare `--rebalance` argument from argv (if present) into
/// rebalance_flag() — like --metrics-out, it must be gone before
/// google-benchmark's parser rejects it as unknown.
void extract_rebalance(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--rebalance") {
      rebalance_flag() = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
}

/// Admission policies swept by row index (state.range(1)).
struct PolicyRow {
  AdmissionPolicy policy;
  const char* name;
};
constexpr PolicyRow kPolicies[] = {
    {AdmissionPolicy::kUnbounded, "unbounded"},
    {AdmissionPolicy::kReject, "reject"},
    {AdmissionPolicy::kShedOldest, "shed-oldest"},
};

/// A deployment with gateway nodes: like bench_common::World, but sessions
/// need several client-side origins (one per gateway) instead of one
/// client node.
struct ScaleWorld {
  explicit ScaleWorld(const StoreServerOptions& sopts, std::uint64_t seed) {
    for (int i = 0; i < kServers; ++i) {
      servers.push_back(topo.add_node("server" + std::to_string(i)));
    }
    for (int i = 0; i < kGateways; ++i) {
      gateways.push_back(topo.add_node("gw" + std::to_string(i)));
    }
    // Gateway-to-server latency ramps with (gateway + server), so every
    // gateway has one near and one far server — a small wide-area spread.
    for (int g = 0; g < kGateways; ++g) {
      for (int s = 0; s < kServers; ++s) {
        topo.connect(gateways[static_cast<std::size_t>(g)],
                     servers[static_cast<std::size_t>(s)],
                     Duration::millis(5 + 5 * ((g + s) % kServers)));
      }
    }
    for (int i = 0; i < kServers; ++i) {
      for (int j = i + 1; j < kServers; ++j) {
        topo.connect(servers[static_cast<std::size_t>(i)],
                     servers[static_cast<std::size_t>(j)],
                     Duration::millis(10));
      }
    }
    topo.set_routing(Topology::Routing::kDirectOnly);
    net = std::make_unique<RpcNetwork>(sim, topo, Rng{seed});
    repo = std::make_unique<Repository>(*net);
    StoreServerOptions options = sopts;
    options.metrics = &metrics;
    for (const NodeId node : servers) repo->add_server(node, options);
  }
  ~ScaleWorld() { repo->stop_all_daemons(); }

  Simulator sim;
  Topology topo;
  /// Row-local sink: per-row percentiles need a histogram that does not
  /// accumulate across sweep rows the way obs::global() would.
  obs::MetricsRegistry metrics;
  std::vector<NodeId> servers;
  std::vector<NodeId> gateways;
  std::unique_ptr<RpcNetwork> net;
  std::unique_ptr<Repository> repo;
};

double per_second(std::uint64_t count, Duration elapsed) {
  const double secs = static_cast<double>(elapsed.count_nanos()) / 1e9;
  return secs <= 0.0 ? 0.0 : static_cast<double>(count) / secs;
}

double pct_ms(const obs::MetricsRegistry& reg, const char* name, double q) {
  const obs::Histogram* h = reg.histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->percentile(q)) / 1e6;
}

void BM_ScaleSweep(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  const PolicyRow& row = kPolicies[static_cast<std::size_t>(state.range(1))];

  for (auto _ : state) {
    StoreServerOptions sopts;
    sopts.admission.enabled = true;
    sopts.admission.policy = row.policy;
    sopts.admission.max_concurrency = 2;
    sopts.admission.max_queue_depth = 32;
    ScaleWorld world{sopts, /*seed=*/0xe18};

    // --rebalance control plane: migration engines on every server, the
    // directory on server 0, one placement cache per gateway.
    std::vector<std::unique_ptr<placement::MigrationEngine>> engines;
    std::unique_ptr<placement::DirectoryService> directory;
    std::vector<std::unique_ptr<placement::DirectoryClient>> dir_clients;
    std::unique_ptr<placement::Rebalancer> rebalancer;
    if (rebalance_flag()) {
      for (const NodeId node : world.servers) {
        engines.push_back(
            std::make_unique<placement::MigrationEngine>(*world.repo, node));
      }
      placement::DirectoryServiceOptions dopts;
      dopts.metrics = &world.metrics;
      directory = std::make_unique<placement::DirectoryService>(
          *world.repo, world.servers[0], dopts);
      for (const NodeId gw : world.gateways) {
        placement::DirectoryClientOptions dco;
        dco.metrics = &world.metrics;
        dir_clients.push_back(std::make_unique<placement::DirectoryClient>(
            *world.repo, gw, world.servers[0], dco));
      }
    }

    load::LoadOptions options;
    options.sessions = sessions;
    options.tenants = 8;
    options.collections_per_tenant = 4;
    options.objects_per_collection = 16;
    options.mode = load::ArrivalMode::kOpenLoop;
    // Fixed 2s arrival window: offered load scales with the session count
    // (the sweep's whole point), concurrency ~ sessions * lifetime / window.
    options.mean_interarrival =
        Duration::nanos(Duration::seconds(2).count_nanos() /
                        static_cast<std::int64_t>(sessions));
    options.ops_per_session = 3;
    options.op_interval = Duration::millis(5);
    options.rpc_timeout = Duration::seconds(1);
    options.seed = 0x5ca1e;
    options.metrics = &world.metrics;
    for (const auto& client : dir_clients) {
      options.directories.push_back(client.get());
    }

    load::LoadEngine engine{*world.repo, world.gateways, options};
    engine.build();
    if (rebalance_flag()) {
      placement::RebalancerOptions rb;
      rb.policy = placement::RebalancePolicy::kLeastLoaded;
      rb.interval = Duration::millis(200);
      rb.metrics = &world.metrics;
      rebalancer = std::make_unique<placement::Rebalancer>(
          *world.repo, world.gateways[0], rb);
      for (const CollectionId id : engine.collections()) {
        rebalancer->manage(id);
      }
      rebalancer->start();
    }
    engine.run_to_completion();
    if (rebalancer != nullptr) {
      rebalancer->stop();
      for (const auto& client : dir_clients) client->stop();
      // Drain the scan loop's final wakeup and any in-flight move.
      world.sim.run_until(world.sim.now() + Duration::millis(500));
    }

    const load::LoadStats stats = engine.stats();
    const Duration elapsed = world.sim.now() - SimTime{};
    const obs::MetricsRegistry& reg = world.metrics;

    state.counters["sessions"] = static_cast<double>(sessions);
    state.counters["ops_offered"] = static_cast<double>(stats.ops_offered);
    state.counters["ops_ok"] = static_cast<double>(stats.ops_ok);
    state.counters["ops_overloaded"] =
        static_cast<double>(stats.ops_overloaded);
    state.counters["ops_failed"] = static_cast<double>(stats.ops_failed);
    state.counters["offered_per_s"] =
        per_second(stats.ops_offered, elapsed);
    state.counters["goodput_per_s"] = per_second(stats.ops_ok, elapsed);
    state.counters["p50_ms"] = pct_ms(reg, "load.op_latency_ns", 0.50);
    state.counters["p95_ms"] = pct_ms(reg, "load.op_latency_ns", 0.95);
    state.counters["p99_ms"] = pct_ms(reg, "load.op_latency_ns", 0.99);
    state.counters["admitted"] =
        static_cast<double>(reg.counter("store.admission.admitted"));
    state.counters["shed"] =
        static_cast<double>(reg.counter("store.admission.shed"));
    const obs::Histogram* depth =
        reg.histogram("store.admission.queue_depth");
    state.counters["max_queue_depth"] =
        depth == nullptr ? 0.0 : static_cast<double>(depth->max());
    state.counters["sim_elapsed_ms"] =
        static_cast<double>(elapsed.count_nanos()) / 1e6;
    if (rebalancer != nullptr) {
      state.counters["moves_requested"] =
          static_cast<double>(rebalancer->moves_requested());
      state.counters["moves_committed"] =
          static_cast<double>(rebalancer->moves_committed());
      state.counters["wrong_epoch_heals"] = static_cast<double>(
          reg.counter("store.client.wrong_epoch_retries"));
      state.counters["epoch_bumps"] =
          static_cast<double>(reg.counter("placement.dir.epoch_bumps"));
    }

    // Mirror the row's aggregates into the process-global registry (the
    // --metrics-out export): that is what the CI determinism cmp reads, so
    // the whole sweep's outcome is part of the byte-identical contract.
    const std::string prefix = std::string{rebalance_flag() ? "e18r.s"
                                                            : "e18.s"} +
                               std::to_string(sessions) + "." + row.name +
                               ".";
    obs::MetricsRegistry& global = obs::global();
    global.add(prefix + "ops_offered", stats.ops_offered);
    global.add(prefix + "ops_ok", stats.ops_ok);
    global.add(prefix + "ops_overloaded", stats.ops_overloaded);
    global.add(prefix + "ops_failed", stats.ops_failed);
    global.add(prefix + "admitted", reg.counter("store.admission.admitted"));
    global.add(prefix + "shed", reg.counter("store.admission.shed"));
    global.add(prefix + "p99_us",
               static_cast<std::uint64_t>(
                   pct_ms(reg, "load.op_latency_ns", 0.99) * 1e3));
    if (rebalancer != nullptr) {
      global.add(prefix + "moves_committed", rebalancer->moves_committed());
      global.add(prefix + "wrong_epoch_heals",
                 reg.counter("store.client.wrong_epoch_retries"));
    }

    state.SetLabel(std::string{row.name} +
                   (rebalance_flag() ? "+rebalance" : ""));
  }
}
BENCHMARK(BM_ScaleSweep)
    ->ArgsProduct({{1'000, 10'000, 100'000}, {0, 1, 2}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace weakset::bench

// WEAKSET_BENCHMARK_MAIN(), plus the --rebalance strip: the flag must be
// consumed before google-benchmark's parser rejects it as unrecognized.
int main(int argc, char** argv) {
  ::weakset::bench::extract_rebalance(argc, argv);
  const std::optional<std::string> metrics_out =
      ::weakset::obs::extract_metrics_out(argc, argv);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  if (metrics_out &&
      !::weakset::obs::global().write_json_file(*metrics_out)) {
    return 1;
  }
  return 0;
}
