// Wall-clock microbenchmarks of the simulator/RPC hot path (ROADMAP item 4:
// wall-clock ns/event is what caps scenario size — sim-time is cost-model
// fiction).
//
// Unlike the experiment benches (bench_e*), the numbers here are REAL time:
// ns per simulator event, ns per RPC dispatch, ns per cancelled timer, and —
// the deterministic part — allocations per operation, counted by the global
// operator-new hook in util/alloc_hook.hpp. CI gates only on the
// `allocs_per_*` counters (deterministic for a fixed toolchain); the
// `wall_ns_*` counters are informational (scripts/metrics_diff.py
// --informational), reported so regressions are visible without making the
// gate flaky on loaded machines.
//
// Every benchmark pins Iterations(1) and loops a fixed operation count
// internally, with a warmup phase first so one-time allocations (vector
// capacities, metric-name interning, the span-retention cap) don't pollute
// the steady-state counts.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "net/rpc.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "store/client.hpp"
#include "store/repository.hpp"
#include "util/alloc_hook.hpp"
#include "util/rng.hpp"

namespace {

using namespace weakset;

constexpr std::uint64_t kWarmupEvents = 4'096;
constexpr std::uint64_t kEvents = 262'144;
constexpr std::uint64_t kWarmupTimers = 4'096;
constexpr std::uint64_t kTimers = 131'072;
// Warmup must exceed the span-retention cap (256 completed spans) so the
// registry's span storage is quiescent during the measured phase.
constexpr std::uint64_t kWarmupRpcs = 768;
constexpr std::uint64_t kRpcs = 16'384;
constexpr std::uint64_t kReads = 1'024;
// As many warm-up reads as measured ones: the read path reaches its steady
// state inside the benchmark, so allocs_per_read does not depend on how far
// the benchmarks that ran before it warmed the process-wide pools.
constexpr std::uint64_t kWarmupReads = kReads;

struct Measured {
  std::uint64_t allocs;
  double wall_ns;
};

template <typename Body>
Measured measure(Body&& body) {
  const std::uint64_t allocs0 = alloc_hook::news();
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs1 = alloc_hook::news();
  return Measured{
      allocs1 - allocs0,
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count())};
}

void report(benchmark::State& state, const char* op, Measured m,
            double ops) {
  state.counters[std::string("allocs_per_") + op] =
      static_cast<double>(m.allocs) / ops;
  state.counters[std::string("wall_ns_per_") + op] = m.wall_ns / ops;
  state.counters["ops"] = ops;
}

// -- ns/event: a self-rescheduling timer chain ------------------------------

void ping_chain(Simulator& sim, std::uint64_t* left) {
  if ((*left)-- == 0) return;
  sim.schedule(Duration::micros(1), [&sim, left] { ping_chain(sim, left); });
}

void run_ping(Simulator& sim, std::uint64_t n) {
  std::uint64_t left = n;
  ping_chain(sim, &left);
  sim.run();
}

void micro_event_loop(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    run_ping(sim, kWarmupEvents);
    const std::uint64_t before = sim.events_processed();
    const Measured m = measure([&] { run_ping(sim, kEvents); });
    const auto ops = static_cast<double>(sim.events_processed() - before);
    report(state, "event", m, ops);
  }
}
BENCHMARK(micro_event_loop)->Iterations(1)->Unit(benchmark::kMillisecond);

// -- ns/timer: schedule_cancellable + immediate cancel churn ----------------
// Each hop of a chain arms a timer, cancels it at once and schedules the
// next hop 2 us later. With a 1 us deadline the timer would have expired by
// the next hop anyway, so this measures the arm/cancel round trip alone; the
// RPC timeout as it really is, a far deadline that a reply beats by far, is
// micro_timer_cancel_far at the end of this file.

void timer_chain(Simulator& sim, Duration deadline, std::uint64_t* left) {
  if ((*left)-- == 0) return;
  const auto token = sim.schedule_cancellable(deadline, [] {});
  token.cancel();
  sim.schedule(Duration::micros(2), [&sim, deadline, left] {
    timer_chain(sim, deadline, left);
  });
}

void run_timers(Simulator& sim, Duration deadline, std::uint64_t n) {
  std::uint64_t left = n;
  timer_chain(sim, deadline, &left);
  sim.run();
}

void bench_timers(benchmark::State& state, Duration deadline) {
  for (auto _ : state) {
    Simulator sim;
    run_timers(sim, deadline, kWarmupTimers);
    const Measured m = measure([&] { run_timers(sim, deadline, kTimers); });
    report(state, "timer", m, static_cast<double>(kTimers));
  }
}

void micro_timer_cancel(benchmark::State& state) {
  bench_timers(state, Duration::micros(1));
}
BENCHMARK(micro_timer_cancel)->Iterations(1)->Unit(benchmark::kMillisecond);

// -- ns/RPC: a two-node echo loop over the full dispatch path ---------------

struct EchoMsg {
  explicit EchoMsg(std::uint64_t v = 0) : value(v) {}
  std::uint64_t value;
};

Task<Result<Payload>> echo_handler(NodeId, Payload request) {
  co_return Payload{payload_cast<EchoMsg>(std::move(request))};
}

Task<void> rpc_loop(RpcNetwork* net, NodeId from, NodeId to, std::uint64_t n,
                    std::uint64_t* acc) {
  for (std::uint64_t i = 0; i < n; ++i) {
    Result<EchoMsg> reply =
        co_await net->call_typed<EchoMsg>(from, to, "micro.echo", EchoMsg{i});
    if (reply) *acc += reply.value().value;
  }
}

void micro_rpc_dispatch(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Topology topo;
    const NodeId client = topo.add_node("client");
    const NodeId server = topo.add_node("server");
    topo.connect(client, server, Duration::millis(1));
    obs::MetricsRegistry local;  // keep the process-global registry clean
    RpcOptions options;
    options.metrics = &local;
    RpcNetwork net{sim, topo, Rng{42}, options};
    net.register_handler(server, "micro.echo", &echo_handler);

    std::uint64_t acc = 0;
    run_task(sim, rpc_loop(&net, client, server, kWarmupRpcs, &acc));
    const Measured m = measure([&] {
      run_task(sim, rpc_loop(&net, client, server, kRpcs, &acc));
    });
    benchmark::DoNotOptimize(acc);
    report(state, "rpc", m, static_cast<double>(kRpcs));
  }
}
BENCHMARK(micro_rpc_dispatch)->Iterations(1)->Unit(benchmark::kMillisecond);

// -- ns/read: store-level read_all over the delta path ----------------------
// Exercises the message/buffer machinery (snapshot + delta replies, member
// lists, fragment cache) rather than raw dispatch: the steady state is an
// unchanged collection served entirely as empty deltas.

Task<void> read_loop(RepositoryClient* client, CollectionId id,
                     std::uint64_t n, std::uint64_t* acc) {
  for (std::uint64_t i = 0; i < n; ++i) {
    auto reply = co_await client->read_all(id);
    if (reply) *acc += reply.value().size();
  }
}

void micro_read_all_delta(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Topology topo;
    const NodeId client_node = topo.add_node("client");
    const NodeId s0 = topo.add_node("server0");
    const NodeId s1 = topo.add_node("server1");
    topo.connect(client_node, s0, Duration::millis(1));
    topo.connect(client_node, s1, Duration::millis(1));
    topo.connect(s0, s1, Duration::millis(1));
    topo.set_routing(Topology::Routing::kDirectOnly);
    obs::MetricsRegistry local;
    RpcOptions rpc_options;
    rpc_options.metrics = &local;
    RpcNetwork net{sim, topo, Rng{7}, rpc_options};
    Repository repo{net};
    StoreServerOptions server_options;
    server_options.metrics = &local;
    // Quiesce the daemons: this bench measures the read path, not
    // anti-entropy or checkpointing.
    server_options.pull_interval = Duration::seconds(1'000'000);
    server_options.durability.checkpoint_interval =
        server_options.pull_interval;
    repo.add_server(s0, server_options);
    repo.add_server(s1, server_options);

    const CollectionId id = repo.create_collection({s0, s1});
    for (int i = 0; i < 64; ++i) {
      const ObjectRef ref = repo.create_object(
          i % 2 == 0 ? s0 : s1, "object-" + std::to_string(i));
      repo.seed_member(id, ref);
    }

    ClientOptions client_options;
    client_options.metrics = &local;
    RepositoryClient reader{repo, client_node, client_options};
    std::uint64_t acc = 0;
    run_task(sim, read_loop(&reader, id, kWarmupReads, &acc));
    const Measured m = measure([&] {
      run_task(sim, read_loop(&reader, id, kReads, &acc));
    });
    benchmark::DoNotOptimize(acc);
    report(state, "read", m, static_cast<double>(kReads));
    repo.stop_all_daemons();
  }
}
BENCHMARK(micro_read_all_delta)->Iterations(1)->Unit(benchmark::kMillisecond);

// -- ns/timer, far deadline: the RPC timeout as it really is ---------------
// The chain above with every timer armed for the RPC default timeout (2 s)
// and cancelled long before it: a reply arrives within milliseconds. A
// cancelled timer that stayed queued until its deadline would pile up here
// (the whole measured loop spans 0.26 simulated seconds), growing the heap
// and the slot slab with every hop.

void micro_timer_cancel_far(benchmark::State& state) {
  bench_timers(state, RpcNetwork::kDefaultTimeout);
}
BENCHMARK(micro_timer_cancel_far)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

// Same --metrics-out handling as the experiment benches (the flag must be
// stripped before google-benchmark parses argv), without pulling in the full
// bench_common world-builder stack.
int main(int argc, char** argv) {
  const std::optional<std::string> metrics_out =
      weakset::obs::extract_metrics_out(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (metrics_out &&
      !weakset::obs::global().write_json_file(*metrics_out)) {
    return 1;
  }
  return 0;
}
