// E20 — block storage engine: what the paged, shadow-checkpointed store
// (src/block, DESIGN.md decision 17) buys over the whole-file checkpoint
// path, on the two axes the design is about:
//
//   BM_RecoveryVsSize — collection size sweeps 10x at a *fixed* WAL-tail
//   dirty count (one manual checkpoint covers the seed, then a scripted
//   churn burst). With the block engine on, recovery loads superblock +
//   root and faults only the buckets the tail touches, so recovery_ms and
//   recovery_read_kb stay flat as members grows; the whole-file path
//   re-reads an image proportional to the collection.
//
//   BM_CacheSweep — the on-disk image grows to many multiples of a fixed
//   page-cache budget while a mutation workload keeps faulting scattered
//   buckets. The engine must keep serving correctly with resident bytes
//   bounded by the budget (evictions + dirty write-backs do the shedding);
//   image_over_budget documents the ratio the row achieved.
//
//   BM_OrSetRecoveryVsHistory — an OR-Set fragment's dot-op history sweeps
//   16x before one checkpoint, then the same churn burst as above and one
//   amnesia crash. The checkpoint images the fragment's dot context and
//   live dots, so recovery replays only the burst: recovery_ms and
//   ops_replayed stay flat as the history grows.
//
// All quantities are simulated time / engine telemetry deltas and
// deterministic: same binary, same seed — the CI gate cmp's a double run
// byte-for-byte.

#include <benchmark/benchmark.h>

#include <cassert>
#include <cstdint>

#include "bench_common.hpp"

namespace weakset::bench {
namespace {

/// Churn window after the covering checkpoint: the fixed dirty tail.
constexpr Duration kChurnWindow = Duration::millis(80);
constexpr Duration kChurnInterval = Duration::millis(1);

StoreServerOptions durable_options() {
  StoreServerOptions options;
  options.durability.durable_acks = true;
  options.durability.fsync_interval = Duration::millis(1);
  // Checkpoints are manual (checkpoint_now) so every cell carries the same
  // replay tail regardless of how long seeding took.
  options.durability.checkpoint_interval = Duration::seconds(1000);
  return options;
}

std::int64_t hist_sum(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Histogram* h = reg.histogram(name);
  return h == nullptr ? 0 : h->sum();
}

void BM_RecoveryVsSize(benchmark::State& state) {
  const auto members = static_cast<int>(state.range(0));
  const bool block_on = state.range(1) != 0;
  for (auto _ : state) {
    WorldConfig config;
    config.servers = 2;
    config.near = Duration::millis(2);
    config.far = Duration::millis(5);
    config.mesh = Duration::millis(5);
    config.server_options = durable_options();
    if (block_on) {
      auto& block = config.server_options.durability.block;
      block.enabled = true;
      block.cache_bytes = 32 * 1024;
      // Keep buckets a few blocks: ~members / 128 (floor 16).
      block.buckets = static_cast<std::uint32_t>(
          members / 128 < 16 ? 16 : members / 128);
      block.compaction_interval = Duration::zero();  // isolate recovery
    }
    obs::MetricsRegistry& reg = obs::global();

    World world{config};
    const CollectionId coll = world.make_collection(members, 1);
    // One checkpoint covers the whole seed; the WAL tail at crash time is
    // exactly the churn burst below — the same dirty count for every size.
    const bool checkpointed = run_task(
        world.sim, world.repo->server_at(world.servers[0])->checkpoint_now());
    assert(checkpointed);
    (void)checkpointed;

    const SimTime churn_start = world.sim.now();
    world.spawn_churn(coll, kChurnInterval, 0.3, churn_start + kChurnWindow,
                      42);
    world.sim.run_until(churn_start + kChurnWindow + Duration::millis(20));

    const std::uint64_t replayed_before = reg.counter("wal.ops_replayed");
    const std::int64_t recovery_ns_before = hist_sum(reg, "wal.recovery");
    const std::uint64_t recovery_read_before =
        reg.counter("store.block.recovery_read_bytes");

    // The crash and restart ride the event queue, ordered with the
    // in-flight work of their instant, rather than being injected between
    // run_until calls.
    const SimTime crash_at = world.sim.now();
    world.sim.schedule(Duration::millis(1), [&world] {
      world.topo.crash(world.servers[0], Topology::CrashKind::kAmnesia);
    });
    world.sim.schedule(Duration::millis(20),
                       [&world] { world.topo.restart(world.servers[0]); });
    world.sim.run_until(crash_at + Duration::millis(300));

    // The recovered primary serves the full durable membership again.
    RepositoryClient client{*world.repo, world.client_node};
    const auto after = run_task(
        world.sim,
        [](RepositoryClient& c,
           CollectionId id) -> Task<Result<std::vector<ObjectRef>>> {
          co_return co_await c.read_all(id);
        }(client, coll));
    assert(after.has_value());
    // Park the world at a fixed instant before it is destroyed: run_task
    // stops the loop mid-instant, so a closing run_until drains the
    // surrounding work (fsync ticks) to a fixed boundary.
    world.sim.run_until(crash_at + Duration::millis(400));

    state.counters["recovery_ms"] =
        static_cast<double>(hist_sum(reg, "wal.recovery") -
                            recovery_ns_before) /
        1e6;
    state.counters["ops_replayed"] = static_cast<double>(
        reg.counter("wal.ops_replayed") - replayed_before);
    state.counters["recovery_read_kb"] =
        static_cast<double>(reg.counter("store.block.recovery_read_bytes") -
                            recovery_read_before) /
        1024.0;
    state.counters["members_after"] =
        static_cast<double>(after.value().size());
    if (block_on) {
      const auto* engine =
          world.repo->server_at(world.servers[0])->block_engine();
      assert(engine != nullptr);
      state.counters["image_kb"] =
          static_cast<double>(engine->file_blocks(coll.raw()) *
                              engine->options().block_size) /
          1024.0;
    }
  }
}
// members x block engine off/on. The size sweep spans 10x; the flat-curve
// claim compares recovery_ms across rows within block_on=1.
BENCHMARK(BM_RecoveryVsSize)
    ->ArgsProduct({{512, 2048, 8192, 20480}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_CacheSweep(benchmark::State& state) {
  const auto members = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WorldConfig config;
    config.servers = 2;
    config.near = Duration::millis(2);
    config.far = Duration::millis(5);
    config.mesh = Duration::millis(5);
    config.server_options = durable_options();
    auto& block = config.server_options.durability.block;
    block.enabled = true;
    block.block_size = 512;   // small blocks: image tracks members closely
    block.cache_bytes = 4096; // fixed budget the image dwarfs
    block.buckets = 64;
    obs::MetricsRegistry& reg = obs::global();
    const std::uint64_t hits_before = reg.counter("store.block.cache_hits");
    const std::uint64_t misses_before =
        reg.counter("store.block.cache_misses");
    const std::uint64_t evictions_before =
        reg.counter("store.block.evictions");
    const std::uint64_t writebacks_before =
        reg.counter("store.block.dirty_writebacks");

    World world{config};
    const CollectionId coll = world.make_collection(members, 1);
    const bool checkpointed = run_task(
        world.sim, world.repo->server_at(world.servers[0])->checkpoint_now());
    assert(checkpointed);
    (void)checkpointed;

    // Scattered mutations: every op faults its member's bucket through the
    // fixed-size cache, evicting (and writing back dirty pages) to stay
    // inside the budget.
    const SimTime churn_start = world.sim.now();
    world.spawn_churn(coll, kChurnInterval, 0.5,
                      churn_start + Duration::millis(150), 7);
    world.sim.run_until(churn_start + Duration::millis(200));

    RepositoryClient client{*world.repo, world.client_node};
    const auto after = run_task(
        world.sim,
        [](RepositoryClient& c,
           CollectionId id) -> Task<Result<std::vector<ObjectRef>>> {
          co_return co_await c.read_all(id);
        }(client, coll));
    assert(after.has_value());
    world.sim.run_until(churn_start + Duration::millis(250));  // see above

    const auto* engine =
        world.repo->server_at(world.servers[0])->block_engine();
    assert(engine != nullptr);
    const double image_bytes =
        static_cast<double>(engine->file_blocks(coll.raw()) *
                            engine->options().block_size);
    state.counters["image_kb"] = image_bytes / 1024.0;
    state.counters["cache_kb"] =
        static_cast<double>(engine->cache_budget()) / 1024.0;
    state.counters["image_over_budget"] =
        image_bytes / static_cast<double>(engine->cache_budget());
    state.counters["resident_kb"] =
        static_cast<double>(engine->resident_bytes()) / 1024.0;
    state.counters["cache_hits"] =
        static_cast<double>(reg.counter("store.block.cache_hits") -
                            hits_before);
    state.counters["cache_misses"] =
        static_cast<double>(reg.counter("store.block.cache_misses") -
                            misses_before);
    state.counters["evictions"] =
        static_cast<double>(reg.counter("store.block.evictions") -
                            evictions_before);
    state.counters["dirty_writebacks"] =
        static_cast<double>(reg.counter("store.block.dirty_writebacks") -
                            writebacks_before);
    state.counters["members_after"] =
        static_cast<double>(after.value().size());
  }
}
// Collection size sweeps while the byte budget stays at 4 KiB; the largest
// rows push the on-disk image past 10x the cache.
BENCHMARK(BM_CacheSweep)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// `ops` dot ops at the OR-Set host: add/remove pairs of fresh objects, so
/// the history grows while the live set stays at its seed.
Task<void> orset_history(World& world, CollectionId coll, int ops) {
  RepositoryClient writer{*world.repo, world.servers[0]};
  for (int i = 0; i < ops / 2; ++i) {
    const ObjectRef ref = world.repo->create_object(
        world.servers[1], "history-" + std::to_string(i));
    co_await writer.add(coll, ref);
    co_await writer.remove(coll, ref);
  }
}

void BM_OrSetRecoveryVsHistory(benchmark::State& state) {
  const auto history = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WorldConfig config;
    config.servers = 2;
    config.near = Duration::millis(2);
    config.far = Duration::millis(5);
    config.mesh = Duration::millis(5);
    config.server_options = durable_options();
    obs::MetricsRegistry& reg = obs::global();

    World world{config};
    StoreServer& host = *world.repo->server_at(world.servers[0]);
    const CollectionId coll = world.repo->create_collection(
        {world.servers[0]}, ReplicationMode::kOrSet);
    world.repo->add_replica(coll, 0, world.servers[1]);
    for (int i = 0; i < 256; ++i) {
      const ObjectRef ref = world.repo->create_object(
          world.servers[static_cast<std::size_t>(i) % 2],
          "object-" + std::to_string(i));
      world.objects.push_back(ref);
      host.seed_orset_member(coll, ref);
    }
    run_task(world.sim, orset_history(world, coll, history));
    const bool checkpointed = run_task(world.sim, host.checkpoint_now());
    assert(checkpointed);
    (void)checkpointed;

    const SimTime churn_start = world.sim.now();
    world.spawn_churn(coll, kChurnInterval, 0.3, churn_start + kChurnWindow,
                      42);
    world.sim.run_until(churn_start + kChurnWindow + Duration::millis(20));

    const std::uint64_t replayed_before = reg.counter("wal.ops_replayed");
    const std::int64_t recovery_ns_before = hist_sum(reg, "wal.recovery");
    const SimTime crash_at = world.sim.now();
    world.sim.schedule(Duration::millis(1), [&world] {
      world.topo.crash(world.servers[0], Topology::CrashKind::kAmnesia);
    });
    world.sim.schedule(Duration::millis(20),
                       [&world] { world.topo.restart(world.servers[0]); });
    world.sim.run_until(crash_at + Duration::millis(300));

    state.counters["recovery_ms"] =
        static_cast<double>(hist_sum(reg, "wal.recovery") -
                            recovery_ns_before) /
        1e6;
    state.counters["ops_replayed"] = static_cast<double>(
        reg.counter("wal.ops_replayed") - replayed_before);
    state.counters["members_after"] =
        static_cast<double>(host.orset_state(coll)->size());
  }
}
// Dot ops before the checkpoint; the burst after it is the same in every
// row.
BENCHMARK(BM_OrSetRecoveryVsHistory)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace weakset::bench

WEAKSET_BENCHMARK_MAIN();
