// The conformance matrix, property-tested: every iterator satisfies its own
// figure's specification whenever the environment honours that figure's
// constraint — across randomized schedules.
//
//   semantics   environment it is specified for
//   fig1        immutable, failure-free
//   fig3        immutable, transient unreachability
//   fig4        arbitrary mutation, no failures
//   fig5        grow-only mutation, no failures
//   fig6        arbitrary mutation + transient unreachability
//
// Also checks the lattice relations on a single benign run (everything
// holds) and that environments outside a figure's constraint break exactly
// the expected figures.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <memory>

#include "core/iterator.hpp"
#include "core/local_view.hpp"
#include "core/repo_view.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "placement/directory.hpp"
#include "placement/migration.hpp"
#include "spec/repo_truth.hpp"
#include "spec/specs.hpp"
#include "util/rng.hpp"

namespace weakset {
namespace {

ObjectRef ref(std::uint64_t id) { return ObjectRef{ObjectId{id}, NodeId{0}}; }

struct Environment {
  bool allow_adds = false;
  bool allow_removes = false;
  bool allow_unreachability = false;
};

struct RunResult {
  spec::IterationTrace trace;
  const spec::MembershipTimeline* timeline;
  DrainResult drained;
};

class Harness {
 public:
  Harness(std::uint64_t seed, const Environment& env)
      : view_(sim_), rng_(seed) {
    const int initial = 4 + static_cast<int>(rng_.uniform(6));
    for (int i = 0; i < initial; ++i) {
      view_.add(ref(static_cast<std::uint64_t>(i)), "p");
    }
    view_.set_latencies(Duration::millis(1), Duration::millis(8));

    std::uint64_t next_id = 1000;
    for (int i = 0; i < 20; ++i) {
      const Duration at =
          Duration::millis(static_cast<int>(rng_.uniform(250)));
      if (env.allow_adds && rng_.bernoulli(0.5)) {
        const auto id = next_id++;
        sim_.schedule(at, [this, id] { view_.add(ref(id), "x"); });
      }
      if (env.allow_removes && rng_.bernoulli(0.3)) {
        const auto id = rng_.uniform(static_cast<std::uint64_t>(initial));
        sim_.schedule(at, [this, id] { view_.remove(ref(id)); });
      }
      if (env.allow_unreachability && rng_.bernoulli(0.3)) {
        const auto id = rng_.uniform(static_cast<std::uint64_t>(initial));
        sim_.schedule(at, [this, id] { view_.set_reachable(ref(id), false); });
        sim_.schedule(at + Duration::millis(60),
                      [this, id] { view_.set_reachable(ref(id), true); });
      }
    }
  }

  RunResult run(Semantics semantics, std::size_t prefetch_window = 1) {
    spec::TraceRecorder recorder{view_};
    IteratorOptions options;
    options.recorder = &recorder;
    options.retry = RetryPolicy{500, Duration::millis(25)};
    options.prefetch_window = prefetch_window;
    auto iterator = make_elements_iterator(view_, semantics, options);
    DrainResult drained = run_task(sim_, drain(*iterator));
    return RunResult{recorder.finish(), &view_.timeline(),
                     std::move(drained)};
  }

 private:
  Simulator sim_;
  LocalSetView view_;
  Rng rng_;
};

// Each matrix cell runs at prefetch window 1 (the serial fetch path) and 8
// (the pipelined path): the figure specifications must hold identically —
// prefetching is a performance knob, not a semantics change.
class MatrixSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
 protected:
  [[nodiscard]] std::uint64_t seed() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::size_t window() const { return std::get<1>(GetParam()); }
};

TEST_P(MatrixSweep, Fig1HoldsInItsEnvironment) {
  Harness harness{seed(), Environment{}};
  const RunResult run = harness.run(Semantics::kFig1Immutable, window());
  EXPECT_TRUE(run.drained.finished());
  const auto report = spec::check_fig1(run.trace);
  EXPECT_TRUE(report.satisfied())
      << (report.violations().empty() ? "-" : report.violations().front());
  // Benign immutable run: the whole design space holds.
  EXPECT_EQ(spec::classify(run.trace, *run.timeline).to_string(),
            "fig1 fig3 fig4 fig5 fig6");
}

TEST_P(MatrixSweep, Fig3HoldsUnderTransientUnreachability) {
  Environment env;
  env.allow_unreachability = true;
  Harness harness{seed(), env};
  const RunResult run =
      harness.run(Semantics::kFig3ImmutableFailAware, window());
  const auto report = spec::check_fig3(run.trace);
  EXPECT_TRUE(report.satisfied())
      << (report.violations().empty() ? "-" : report.violations().front());
  // Set immutable: whether the run failed or returned, fig4's ensures (same
  // clause) must hold too.
  EXPECT_TRUE(spec::check_fig4(run.trace).satisfied());
}

TEST_P(MatrixSweep, Fig4HoldsUnderArbitraryMutation) {
  Environment env;
  env.allow_adds = true;
  env.allow_removes = true;
  Harness harness{seed(), env};
  const RunResult run = harness.run(Semantics::kFig4Snapshot, window());
  EXPECT_TRUE(run.drained.finished());
  const auto report = spec::check_fig4(run.trace);
  EXPECT_TRUE(report.satisfied())
      << (report.violations().empty() ? "-" : report.violations().front());
}

TEST_P(MatrixSweep, Fig5HoldsUnderGrowOnlyMutation) {
  Environment env;
  env.allow_adds = true;
  Harness harness{seed(), env};
  const RunResult run =
      harness.run(Semantics::kFig5GrowOnlyPessimistic, window());
  EXPECT_TRUE(run.drained.finished());
  const auto report = spec::check_fig5(run.trace);
  EXPECT_TRUE(report.satisfied())
      << (report.violations().empty() ? "-" : report.violations().front());
  // Grow-only environment: the constraint over the window must hold.
  EXPECT_TRUE(spec::check_constraint_grow_only(*run.timeline,
                                               run.trace.first_time(),
                                               run.trace.last_time())
                  .satisfied());
  // fig6 is weaker than fig5 on completed runs: it must hold as well.
  EXPECT_TRUE(spec::check_fig6(run.trace, *run.timeline).satisfied());
}

TEST_P(MatrixSweep, Fig6HoldsUnderChurnAndUnreachability) {
  Environment env;
  env.allow_adds = true;
  env.allow_removes = true;
  env.allow_unreachability = true;
  Harness harness{seed(), env};
  const RunResult run = harness.run(Semantics::kFig6Optimistic, window());
  const auto report = spec::check_fig6(run.trace, *run.timeline);
  EXPECT_TRUE(report.satisfied())
      << "seed " << seed() << " window " << window() << ": "
      << (report.violations().empty() ? "-" : report.violations().front());
  // Never a hard failure — blocked at worst.
  if (!run.drained.finished()) {
    ASSERT_TRUE(run.drained.failure().has_value());
    EXPECT_EQ(run.drained.failure()->kind, FailureKind::kExhausted);
  }
  // No duplicate yields, ever.
  std::set<ObjectRef> unique;
  for (const ObjectRef r : run.trace.yield_sequence()) {
    EXPECT_TRUE(unique.insert(r).second);
  }
}

TEST_P(MatrixSweep, RemovalsBreakFig5ButNotFig6) {
  Environment env;
  env.allow_adds = true;
  env.allow_removes = true;
  Harness harness{seed(), env};
  const RunResult run = harness.run(Semantics::kFig6Optimistic, window());
  const auto conformance = spec::classify(run.trace, *run.timeline);
  EXPECT_TRUE(conformance.fig6());
  // With at least one effective removal inside the window, fig5 cannot hold.
  if (!run.timeline->grow_only_in_window(run.trace.first_time(),
                                         run.trace.last_time())) {
    EXPECT_FALSE(conformance.fig5());
    EXPECT_FALSE(conformance.fig1());
    EXPECT_FALSE(conformance.fig3());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MatrixSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(100, 115),
                       ::testing::Values<std::size_t>(1, 8)));

// ---------------------------------------------------------------------------
// Delta-sync equivalence sweep (repo-backed): ReadPolicy × figure × seed.
//
// Each cell runs the identical scripted distributed world twice — delta
// reads off and on — and asserts the yielded sequence and the run outcome
// (finished, or failed with which kind) are byte-for-byte identical. The
// per-entry serving cost is pinned to zero so the two runs have identical
// event timelines (same RPC count, same service times, same jitter draws):
// the only difference left is the wire protocol, which must be invisible.

struct RepoRun {
  std::vector<ObjectRef> yields;
  bool finished = false;
  std::optional<FailureKind> failure;
  std::uint64_t delta_fragments = 0;  ///< fragments served incrementally
  std::uint64_t full_fragments = 0;   ///< fragments shipped in full
};

struct RepoScript {
  bool adds = false;
  bool removes = false;
  bool partition = false;  ///< cut client <-> fragment-1 primary mid-run
};

RepoScript script_for(Semantics semantics) {
  RepoScript script;
  switch (semantics) {
    case Semantics::kFig1Immutable:
      break;
    case Semantics::kFig3ImmutableFailAware:
      script.partition = true;
      break;
    case Semantics::kFig4Snapshot:
      script.adds = script.removes = true;
      break;
    case Semantics::kFig5GrowOnlyPessimistic:
      script.adds = true;
      script.partition = true;
      break;
    case Semantics::kFig6Optimistic:
      script.adds = script.removes = true;
      script.partition = true;
      break;
  }
  return script;
}

RepoRun run_repo_figure(Semantics semantics, ReadPolicy policy, bool delta,
                        std::uint64_t seed) {
  Simulator sim;
  Topology topo;
  const NodeId client_node = topo.add_node("client");
  std::vector<NodeId> servers;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(topo.add_node("s" + std::to_string(i)));
  }
  topo.connect_full_mesh(Duration::millis(5));
  RpcNetwork net{sim, topo, Rng{seed}};
  Repository repo{net};
  StoreServerOptions server_options;
  // Zero per-entry serving cost: a delta and a full reply then cost the
  // same simulated time, making the two runs' timelines identical.
  server_options.membership_entry_cost = Duration::zero();
  for (const NodeId node : servers) repo.add_server(node, server_options);

  // Two fragments (s0, s1); fragment 0 also has a replica on s2, so
  // kNearest/kQuorum have a host choice to make. Objects are homed on s0/s2
  // only: the scripted partition isolates s1, so it breaks *membership
  // reads* of fragment 1, never element fetches.
  const CollectionId coll = repo.create_collection({servers[0], servers[1]});
  repo.add_replica(coll, 0, servers[2]);
  const CollectionMeta& meta = repo.meta(coll);
  std::vector<ObjectRef> objects;
  for (int i = 0; i < 8; ++i) {
    const NodeId home = servers[i % 2 == 0 ? 0 : 2];
    objects.push_back(repo.create_object(home, "p" + std::to_string(i)));
    repo.seed_member(coll, objects.back());
  }

  // Scripted world: times drawn from a seed-fixed RNG, applied directly at
  // the responsible fragment primary's state (same draws in both runs).
  auto mutate = [&repo, &meta, coll](ObjectRef ref, bool add) {
    const NodeId primary = meta.fragments()[meta.fragment_of(ref)].primary();
    CollectionState* state = repo.server_at(primary)->collection(coll);
    if (add) {
      state->add(ref);
    } else {
      state->remove(ref);
    }
  };
  const RepoScript script = script_for(semantics);
  Rng script_rng{seed + 1};
  std::vector<ObjectRef> extra;
  for (int i = 0; i < 6; ++i) {
    const NodeId home = servers[i % 2 == 0 ? 0 : 2];
    extra.push_back(repo.create_object(home, "x" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    const Duration at =
        Duration::millis(static_cast<int>(script_rng.uniform(300)));
    if (script.adds && script_rng.bernoulli(0.7)) {
      const ObjectRef ref = extra[static_cast<std::size_t>(i)];
      sim.schedule(at, [mutate, ref] { mutate(ref, true); });
    }
    if (script.removes && script_rng.bernoulli(0.4)) {
      const ObjectRef ref =
          objects[script_rng.uniform(objects.size())];
      sim.schedule(at, [mutate, ref] { mutate(ref, false); });
    }
  }
  if (script.partition) {
    // Late enough that the refresh-per-next figures have absorbed deltas
    // before the cut; early enough that it lands inside the run.
    sim.schedule(Duration::millis(60), [&topo, client_node, &servers] {
      topo.partition({{client_node, servers[0], servers[2]}, {servers[1]}});
    });
    sim.schedule(Duration::millis(200), [&topo] { topo.heal(); });
  }

  ClientOptions client_options;
  client_options.read_policy = policy;
  client_options.delta_reads = delta;
  RepositoryClient client{repo, client_node, client_options};
  RepoSetView view{client, coll};
  IteratorOptions options;
  options.retry = RetryPolicy{500, Duration::millis(25)};
  auto iterator = make_elements_iterator(view, semantics, options);
  const DrainResult drained = run_task(sim, drain(*iterator));

  RepoRun run;
  for (const ObjectRef ref : iterator->yielded()) run.yields.push_back(ref);
  run.finished = drained.finished();
  if (drained.failure()) run.failure = drained.failure()->kind;
  run.delta_fragments = client.read_stats().fragment_reads_delta;
  run.full_fragments = client.read_stats().fragment_reads_full;

  repo.stop_all_daemons();
  sim.run();  // drain daemons so coroutine frames unwind
  return run;
}

class DeltaEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<ReadPolicy, std::uint64_t>> {
 protected:
  [[nodiscard]] ReadPolicy policy() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::uint64_t seed() const { return std::get<1>(GetParam()); }

  void expect_equivalent(Semantics semantics) {
    const RepoRun off = run_repo_figure(semantics, policy(), false, seed());
    const RepoRun on = run_repo_figure(semantics, policy(), true, seed());
    EXPECT_EQ(off.yields, on.yields)
        << to_string(semantics) << " seed " << seed()
        << ": delta sync changed the yielded sequence";
    EXPECT_EQ(off.finished, on.finished) << to_string(semantics);
    EXPECT_EQ(off.failure, on.failure) << to_string(semantics);
    // The delta-off run must never touch the delta path; on the figures
    // that re-read membership per next() (fig5/fig6), the delta-on run must
    // actually exercise it — except under kQuorum, which always compares
    // full snapshots from multiple hosts. Fig1/fig3 read once (never a
    // second read to serve incrementally) and fig4 uses snapshot_atomic.
    EXPECT_EQ(off.delta_fragments, 0u);
    const bool refreshes = semantics == Semantics::kFig5GrowOnlyPessimistic ||
                           semantics == Semantics::kFig6Optimistic;
    if (policy() != ReadPolicy::kQuorum && refreshes) {
      EXPECT_GT(on.delta_fragments, 0u)
          << to_string(semantics) << ": delta path never used";
    }
  }
};

TEST_P(DeltaEquivalenceSweep, Fig1) {
  expect_equivalent(Semantics::kFig1Immutable);
}
TEST_P(DeltaEquivalenceSweep, Fig3) {
  expect_equivalent(Semantics::kFig3ImmutableFailAware);
}
TEST_P(DeltaEquivalenceSweep, Fig4) {
  expect_equivalent(Semantics::kFig4Snapshot);
}
TEST_P(DeltaEquivalenceSweep, Fig5) {
  expect_equivalent(Semantics::kFig5GrowOnlyPessimistic);
}
TEST_P(DeltaEquivalenceSweep, Fig6) {
  expect_equivalent(Semantics::kFig6Optimistic);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DeltaEquivalenceSweep,
    ::testing::Combine(::testing::Values(ReadPolicy::kPrimaryOnly,
                                         ReadPolicy::kNearest,
                                         ReadPolicy::kQuorum),
                       ::testing::Range<std::uint64_t>(300, 306)));

// ---------------------------------------------------------------------------
// Crash-recovery axis: a fragment primary suffers an amnesia crash (volatile
// state lost; durable WAL + checkpoint recovery on restart, DESIGN.md
// decision 11) in the middle of the iteration. Servers run strict durable
// acks, so every mutation a client saw acknowledged survives the crash;
// anything applied-but-unacked is rolled back, and the crash reports it to
// the ground-truth timeline as a compensating mutation — the trace is
// checked against the history that actually remained true.
//
// Each figure runs inside its own environment (fig1 is excluded: its
// environment is failure-free, and a crash is a failure). Two passes per
// cell: pass 1 starts before the crash and runs into it — fig6 (the only
// retrying figure) rides the outage out and must finish after recovery; the
// fail-aware figures (fig3/4/5) either finish or fail *cleanly*, and either
// observation must satisfy their spec. Pass 2 starts after recovery and must
// always complete: the durable state the node recovered is good enough to
// iterate — that is the whole point of the storage engine.
//
// Mutation times are scheduled clear of the crash instant (finished well
// before it, or issued after recovery): an ack in flight across the crash
// would be rolled back, and the compensating remove would break fig5's
// *environment constraint* (grow-only) — the matrix tests figures inside
// their constraints, so the script keeps the constraint true by timing, not
// by weakening the check.

struct RecoveryCell {
  bool finished = false;
  std::optional<FailureKind> failure;
  std::vector<ObjectRef> yields;
  Duration drain_end = Duration::zero();  ///< since the run started
  bool rerun = false;  ///< pass 1 failed mid-outage, so pass 2 ran
  bool rerun_finished = false;
  std::vector<ObjectRef> rerun_yields;
  Duration rerun_end = Duration::zero();
  std::string metrics_json;
};

RecoveryCell run_recovery_cell(Semantics semantics, ReadPolicy policy,
                               std::uint64_t seed) {
  obs::MetricsRegistry reg;
  Simulator sim;
  Topology topo;
  const NodeId client_node = topo.add_node("client");
  std::vector<NodeId> servers;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(topo.add_node("s" + std::to_string(i)));
  }
  topo.connect_full_mesh(Duration::millis(5));
  RpcNetwork net{sim, topo, Rng{seed}};
  Repository repo{net};
  StoreServerOptions server_options;
  server_options.durability.durable_acks = true;
  server_options.durability.fsync_interval = Duration::millis(1);
  server_options.durability.checkpoint_interval = Duration::millis(40);
  server_options.metrics = &reg;
  for (const NodeId node : servers) repo.add_server(node, server_options);

  // Two fragments (s0, s1), a replica of fragment 0 on s2. Half the
  // members live on s0 — the crash victim — so the outage blocks element
  // fetches as well as fragment-0 membership reads.
  const CollectionId coll = repo.create_collection({servers[0], servers[1]});
  repo.add_replica(coll, 0, servers[2]);
  std::vector<ObjectRef> objects;
  for (int i = 0; i < 12; ++i) {
    const NodeId home = servers[i % 2 == 0 ? 0 : 2];
    objects.push_back(repo.create_object(home, "p" + std::to_string(i)));
    repo.seed_member(coll, objects.back());
  }
  spec::TimelineProbe probe{repo, coll};

  const Duration crash_at = Duration::millis(60);
  const Duration restart_at = Duration::millis(160);
  sim.schedule(crash_at, [&topo, &servers] {
    topo.crash(servers[0], Topology::CrashKind::kAmnesia);
  });
  sim.schedule(restart_at, [&topo, &servers] { topo.restart(servers[0]); });

  // Scripted mutations, through the RPC client (never applied directly):
  // the timeline must only hear of acknowledged — hence durable — effects,
  // plus whatever compensation the crash emits.
  ClientOptions mutator_options;
  mutator_options.metrics = &reg;
  RepositoryClient mutator{repo, client_node, mutator_options};
  const auto mutate_at = [&sim, &mutator, coll](Duration at, ObjectRef ref,
                                                bool add) {
    sim.schedule(at, [&sim, &mutator, coll, ref, add] {
      sim.spawn([](RepositoryClient& c, CollectionId id, ObjectRef r,
                   bool a) -> Task<void> {
        if (a) {
          (void)co_await c.add(id, r);
        } else {
          (void)co_await c.remove(id, r);
        }
      }(mutator, coll, ref, add));
    });
  };
  const RepoScript script = script_for(semantics);
  Rng script_rng{seed + 1};
  std::vector<ObjectRef> extra;
  for (int i = 0; i < 6; ++i) {
    extra.push_back(repo.create_object(servers[2], "x" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    // Either window is clear of the crash: an ack round trip takes ~11-15ms
    // (5ms each way + the 1ms group-commit wait), so mutations issued before
    // 40ms are durably acked by 60ms, and 220ms is long past recovery.
    const Duration at =
        script_rng.bernoulli(0.5)
            ? Duration::millis(static_cast<int>(script_rng.uniform(40)))
            : Duration::millis(220 + static_cast<int>(script_rng.uniform(80)));
    if (script.adds && script_rng.bernoulli(0.7)) {
      mutate_at(at, extra[static_cast<std::size_t>(i)], true);
    }
    if (script.removes && script_rng.bernoulli(0.4)) {
      mutate_at(at, objects[script_rng.uniform(objects.size())], false);
    }
  }

  ClientOptions client_options;
  client_options.read_policy = policy;
  client_options.metrics = &reg;
  RepositoryClient client{repo, client_node, client_options};
  RepoSetView view{client, coll};
  spec::RepoGroundTruth truth{repo, coll, client_node};

  struct Pass {
    bool finished = false;
    std::optional<FailureKind> failure;
    std::vector<ObjectRef> yields;
    Duration end = Duration::zero();
  };
  // Drain one full iteration and check its observation against the figure's
  // spec. Finishing is not required here: a fail-aware figure that aborts
  // cleanly mid-outage still produced an observation, and that observation
  // must be admissible against the history that stayed true past the crash.
  const auto drain_pass = [&](const char* label) {
    spec::TraceRecorder recorder{truth};
    IteratorOptions options;
    options.recorder = &recorder;
    options.retry = RetryPolicy{500, Duration::millis(25)};
    auto iterator = make_elements_iterator(view, semantics, options);
    const DrainResult drained = run_task(sim, drain(*iterator));
    Pass pass;
    pass.finished = drained.finished();
    if (drained.failure()) pass.failure = drained.failure()->kind;
    for (const ObjectRef ref : iterator->yielded()) pass.yields.push_back(ref);
    pass.end = sim.now() - SimTime{};

    const spec::IterationTrace trace = recorder.finish();
    const spec::MembershipTimeline& timeline = probe.timeline();
    switch (semantics) {
      case Semantics::kFig3ImmutableFailAware: {
        const auto report = spec::check_fig3(trace);
        EXPECT_TRUE(report.satisfied())
            << "fig3 seed " << seed << " " << label << ": "
            << (report.violations().empty() ? "-"
                                            : report.violations().front());
        // Strict acks + no mutations: the crash compensated nothing, so the
        // set really was immutable throughout.
        EXPECT_TRUE(spec::check_constraint_immutable(timeline,
                                                     trace.first_time(),
                                                     trace.last_time())
                        .satisfied());
        break;
      }
      case Semantics::kFig4Snapshot: {
        const auto report = spec::check_fig4(trace);
        EXPECT_TRUE(report.satisfied())
            << "fig4 seed " << seed << " " << label << ": "
            << (report.violations().empty() ? "-"
                                            : report.violations().front());
        break;
      }
      case Semantics::kFig5GrowOnlyPessimistic: {
        const auto report = spec::check_fig5(trace);
        EXPECT_TRUE(report.satisfied())
            << "fig5 seed " << seed << " " << label << ": "
            << (report.violations().empty() ? "-"
                                            : report.violations().front());
        // The crash must not have broken the environment constraint: all
        // acked adds were durable, so no compensating removes appeared.
        EXPECT_TRUE(spec::check_constraint_grow_only(timeline,
                                                     trace.first_time(),
                                                     trace.last_time())
                        .satisfied());
        break;
      }
      case Semantics::kFig6Optimistic: {
        const auto report = spec::check_fig6(trace, timeline);
        EXPECT_TRUE(report.satisfied())
            << "fig6 seed " << seed << " " << label << ": "
            << (report.violations().empty() ? "-"
                                            : report.violations().front());
        break;
      }
      case Semantics::kFig1Immutable:
        break;  // excluded: failure-free environment
    }
    // Never a duplicate yield, and never an element that was never a member
    // during the iteration's window.
    std::set<ObjectRef> unique;
    for (const ObjectRef ref : pass.yields) {
      EXPECT_TRUE(unique.insert(ref).second) << label;
      EXPECT_TRUE(timeline.present_in_window(ref, trace.first_time(),
                                             trace.last_time()))
          << label
          << ": yielded an element that was never a member in the window";
    }
    return pass;
  };

  RecoveryCell cell;
  const Pass first = drain_pass("pass 1");
  cell.finished = first.finished;
  cell.failure = first.failure;
  cell.yields = first.yields;
  cell.drain_end = first.end;
  if (!first.finished) {
    // Only fig6 retries through unreachability; the fail-aware figures abort
    // cleanly while the primary is down. The abort must be a reported
    // failure, never a hang or a silently-truncated "finish" — and once the
    // node has replayed its WAL, the same iteration run afresh must complete
    // against the recovered durable state.
    EXPECT_TRUE(first.failure.has_value());
    sim.run_until(SimTime{} + restart_at + Duration::millis(40));
    const Pass second = drain_pass("post-recovery rerun");
    cell.rerun = true;
    cell.rerun_finished = second.finished;
    cell.rerun_yields = second.yields;
    cell.rerun_end = second.end;
  }

  repo.stop_all_daemons();
  sim.run();  // drain daemons so coroutine frames unwind
  EXPECT_GE(reg.counter("wal.recoveries"), 1u);
  cell.metrics_json = reg.to_json();
  return cell;
}

class CrashRecoverySweep
    : public ::testing::TestWithParam<std::tuple<ReadPolicy, std::uint64_t>> {
 protected:
  [[nodiscard]] ReadPolicy policy() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(CrashRecoverySweep, Fig3) {
  const RecoveryCell cell =
      run_recovery_cell(Semantics::kFig3ImmutableFailAware, policy(), seed());
  EXPECT_TRUE(cell.finished || cell.rerun_finished);
}

TEST_P(CrashRecoverySweep, Fig4) {
  const RecoveryCell cell =
      run_recovery_cell(Semantics::kFig4Snapshot, policy(), seed());
  // The atomic snapshot either completes its fetches around the outage or
  // fails cleanly; a fresh snapshot after recovery always completes.
  EXPECT_TRUE(cell.finished || cell.rerun_finished);
}

TEST_P(CrashRecoverySweep, Fig5ResumesAfterRecovery) {
  const RecoveryCell cell =
      run_recovery_cell(Semantics::kFig5GrowOnlyPessimistic, policy(), seed());
  // Half the members live on the crashed node, so the pessimistic iterator
  // cannot complete during the outage: it fails cleanly (the fail-aware
  // contract), and the iteration run again after recovery completes against
  // the state the node replayed from its WAL.
  EXPECT_TRUE(cell.finished || cell.rerun_finished);
  if (cell.rerun) {
    EXPECT_TRUE(cell.rerun_finished);
    EXPECT_GE(cell.rerun_end, Duration::millis(160));
  } else {
    EXPECT_GE(cell.drain_end, Duration::millis(160));
  }
}

TEST_P(CrashRecoverySweep, Fig6ResumesAfterRecovery) {
  const RecoveryCell cell =
      run_recovery_cell(Semantics::kFig6Optimistic, policy(), seed());
  EXPECT_TRUE(cell.finished);
  EXPECT_GE(cell.drain_end, Duration::millis(160));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CrashRecoverySweep,
    ::testing::Combine(::testing::Values(ReadPolicy::kPrimaryOnly,
                                         ReadPolicy::kNearest,
                                         ReadPolicy::kQuorum),
                       ::testing::Range<std::uint64_t>(400, 403)));

TEST(CrashRecoveryDeterminism, SameCellTwiceIsByteIdentical) {
  const RecoveryCell a =
      run_recovery_cell(Semantics::kFig6Optimistic, ReadPolicy::kNearest, 401);
  const RecoveryCell b =
      run_recovery_cell(Semantics::kFig6Optimistic, ReadPolicy::kNearest, 401);
  EXPECT_EQ(a.yields, b.yields);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.drain_end, b.drain_end);
  // The whole telemetry export — recovery durations, ops replayed, fsync
  // histograms — is byte-identical across same-seed runs.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(CrashRecoveryDeterminism, RerunCellTwiceIsByteIdentical) {
  // A fail-aware cell exercises the failure + post-recovery rerun path; that
  // path, too, must be bit-for-bit reproducible.
  const RecoveryCell a = run_recovery_cell(Semantics::kFig5GrowOnlyPessimistic,
                                           ReadPolicy::kPrimaryOnly, 402);
  const RecoveryCell b = run_recovery_cell(Semantics::kFig5GrowOnlyPessimistic,
                                           ReadPolicy::kPrimaryOnly, 402);
  EXPECT_EQ(a.rerun, b.rerun);
  EXPECT_EQ(a.rerun_yields, b.rerun_yields);
  EXPECT_EQ(a.rerun_end, b.rerun_end);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

// ---------------------------------------------------------------------------
// Migration axis: one live fragment move lands in the middle of the
// iteration (src/placement, DESIGN.md decision 12). The iterating and
// mutating clients both resolve placement through cached DirectoryClients,
// so the move makes their views stale mid-run — the WrongEpoch heal must
// keep every figure's specification intact. Under the locking figures the
// interplay goes the other way: fig5 pins the fragments for the whole
// iteration, so the scripted move must abort cleanly (migration and locks
// exclude each other); fig4's freeze is brief, so the move usually commits
// after the snapshot's unfreeze. Either way the run must end with exactly
// one consistent home that agrees with the directory.

struct MigrationCell {
  bool finished = false;
  std::optional<FailureKind> failure;
  std::vector<ObjectRef> yields;
  bool committed = false;  ///< the scripted move reached its commit
  std::uint64_t epoch = 0;  ///< directory epoch after the run
  std::string metrics_json;
};

MigrationCell run_migration_cell(Semantics semantics, ReadPolicy policy,
                                 std::uint64_t seed) {
  obs::MetricsRegistry reg;
  Simulator sim;
  Topology topo;
  const NodeId client_node = topo.add_node("client");
  std::vector<NodeId> servers;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(topo.add_node("s" + std::to_string(i)));
  }
  topo.connect_full_mesh(Duration::millis(5));
  RpcNetwork net{sim, topo, Rng{seed}};
  Repository repo{net};
  StoreServerOptions server_options;
  server_options.metrics = &reg;
  for (const NodeId node : servers) repo.add_server(node, server_options);
  placement::MigrationEngineOptions engine_options;
  engine_options.metrics = &reg;
  std::vector<std::unique_ptr<placement::MigrationEngine>> engines;
  for (const NodeId node : servers) {
    engines.push_back(std::make_unique<placement::MigrationEngine>(
        repo, node, engine_options));
  }
  placement::DirectoryServiceOptions dir_options;
  dir_options.metrics = &reg;
  placement::DirectoryService directory{repo, servers[2], dir_options};

  // Two fragments (s0, s1), unreplicated — replicated fragments do not
  // migrate. Every element is homed on s2, so element fetches are
  // indifferent to where membership lives; the move disturbs exactly the
  // membership read/mutate paths.
  const CollectionId coll = repo.create_collection({servers[0], servers[1]});
  std::vector<ObjectRef> objects;
  for (int i = 0; i < 12; ++i) {
    objects.push_back(repo.create_object(servers[2], "p" + std::to_string(i)));
    repo.seed_member(coll, objects.back());
  }
  spec::TimelineProbe probe{repo, coll};

  // The one mid-iteration move: fragment 0 rehomes s0 -> s2 at 50ms.
  auto moved = std::make_shared<std::optional<Result<std::uint64_t>>>();
  sim.schedule(Duration::millis(50), [&sim, &engines, coll, &servers, moved] {
    sim.spawn([](placement::MigrationEngine& engine, CollectionId id,
                 NodeId target,
                 std::shared_ptr<std::optional<Result<std::uint64_t>>> out)
                  -> Task<void> {
      *out = co_await engine.migrate(id, 0, target);
    }(*engines[0], coll, servers[2], moved));
  });

  placement::DirectoryClientOptions dir_client_options;
  dir_client_options.metrics = &reg;
  placement::DirectoryClient mutator_dir{repo, client_node, directory.node(),
                                         dir_client_options};
  ClientOptions mutator_options;
  mutator_options.metrics = &reg;
  mutator_options.directory = &mutator_dir;
  RepositoryClient mutator{repo, client_node, mutator_options};
  const auto mutate_at = [&sim, &mutator, coll](Duration at, ObjectRef ref,
                                                bool add) {
    sim.schedule(at, [&sim, &mutator, coll, ref, add] {
      sim.spawn([](RepositoryClient& c, CollectionId id, ObjectRef r,
                   bool a) -> Task<void> {
        if (a) {
          (void)co_await c.add(id, r);
        } else {
          (void)co_await c.remove(id, r);
        }
      }(mutator, coll, ref, add));
    });
  };
  const RepoScript script = script_for(semantics);
  Rng script_rng{seed + 1};
  std::vector<ObjectRef> extra;
  for (int i = 0; i < 6; ++i) {
    extra.push_back(repo.create_object(servers[2], "x" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    // Spread across the run: some land before the move, some inside its
    // handoff window (dual-applied + forwarded), some after the commit.
    const Duration at =
        Duration::millis(static_cast<int>(script_rng.uniform(300)));
    if (script.adds && script_rng.bernoulli(0.7)) {
      mutate_at(at, extra[static_cast<std::size_t>(i)], true);
    }
    if (script.removes && script_rng.bernoulli(0.4)) {
      mutate_at(at, objects[script_rng.uniform(objects.size())], false);
    }
  }

  placement::DirectoryClient reader_dir{repo, client_node, directory.node(),
                                        dir_client_options};
  ClientOptions client_options;
  client_options.read_policy = policy;
  client_options.metrics = &reg;
  client_options.directory = &reader_dir;
  RepositoryClient client{repo, client_node, client_options};
  RepoSetView view{client, coll};
  spec::RepoGroundTruth truth{repo, coll, client_node};

  spec::TraceRecorder recorder{truth};
  IteratorOptions options;
  options.recorder = &recorder;
  options.retry = RetryPolicy{500, Duration::millis(25)};
  auto iterator = make_elements_iterator(view, semantics, options);
  const DrainResult drained = run_task(sim, drain(*iterator));

  MigrationCell cell;
  cell.finished = drained.finished();
  if (drained.failure()) cell.failure = drained.failure()->kind;
  for (const ObjectRef ref : iterator->yielded()) cell.yields.push_back(ref);

  const spec::IterationTrace trace = recorder.finish();
  const spec::MembershipTimeline& timeline = probe.timeline();
  switch (semantics) {
    case Semantics::kFig1Immutable: {
      const auto report = spec::check_fig1(trace);
      EXPECT_TRUE(report.satisfied())
          << "fig1 seed " << seed << ": "
          << (report.violations().empty() ? "-" : report.violations().front());
      // No mutations scripted: the move must not fabricate any.
      EXPECT_TRUE(spec::check_constraint_immutable(timeline,
                                                   trace.first_time(),
                                                   trace.last_time())
                      .satisfied());
      break;
    }
    case Semantics::kFig3ImmutableFailAware: {
      const auto report = spec::check_fig3(trace);
      EXPECT_TRUE(report.satisfied())
          << "fig3 seed " << seed << ": "
          << (report.violations().empty() ? "-" : report.violations().front());
      break;
    }
    case Semantics::kFig4Snapshot: {
      const auto report = spec::check_fig4(trace);
      EXPECT_TRUE(report.satisfied())
          << "fig4 seed " << seed << ": "
          << (report.violations().empty() ? "-" : report.violations().front());
      break;
    }
    case Semantics::kFig5GrowOnlyPessimistic: {
      const auto report = spec::check_fig5(trace);
      EXPECT_TRUE(report.satisfied())
          << "fig5 seed " << seed << ": "
          << (report.violations().empty() ? "-" : report.violations().front());
      // Dual-applied forwards announce once: no phantom removes appeared to
      // break the grow-only constraint.
      EXPECT_TRUE(spec::check_constraint_grow_only(timeline,
                                                   trace.first_time(),
                                                   trace.last_time())
                      .satisfied());
      break;
    }
    case Semantics::kFig6Optimistic: {
      const auto report = spec::check_fig6(trace, timeline);
      EXPECT_TRUE(report.satisfied())
          << "fig6 seed " << seed << ": "
          << (report.violations().empty() ? "-" : report.violations().front());
      break;
    }
  }
  std::set<ObjectRef> unique;
  for (const ObjectRef ref : cell.yields) {
    EXPECT_TRUE(unique.insert(ref).second);
    EXPECT_TRUE(timeline.present_in_window(ref, trace.first_time(),
                                           trace.last_time()))
        << "yielded an element that was never a member in the window";
  }

  // Let the scripted move (and any straggling mutators) run to completion,
  // then check the system invariant: exactly one consistent home, agreeing
  // with the directory.
  sim.run_until(SimTime{} + Duration::millis(900));
  EXPECT_TRUE(moved->has_value());
  cell.committed = moved->has_value() && (*moved)->has_value();
  cell.epoch = repo.meta(coll).epoch();
  if (cell.committed) {
    EXPECT_EQ(cell.epoch, 2u);
    EXPECT_EQ(repo.meta(coll).fragments()[0].primary(), servers[2]);
    EXPECT_TRUE(repo.server_at(servers[2])->hosts_primary(coll));
    EXPECT_FALSE(repo.server_at(servers[0])->hosts_primary(coll));
  } else {
    EXPECT_EQ(cell.epoch, 1u);
    EXPECT_EQ(repo.meta(coll).fragments()[0].primary(), servers[0]);
    EXPECT_TRUE(repo.server_at(servers[0])->hosts_primary(coll));
    EXPECT_FALSE(repo.server_at(servers[2])->hosts_primary(coll));
  }

  repo.stop_all_daemons();
  sim.run();  // drain daemons
  cell.metrics_json = reg.to_json();
  return cell;
}

class MigrationSweep
    : public ::testing::TestWithParam<std::tuple<ReadPolicy, std::uint64_t>> {
 protected:
  [[nodiscard]] ReadPolicy policy() const { return std::get<0>(GetParam()); }
  [[nodiscard]] std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(MigrationSweep, Fig1) {
  const MigrationCell cell =
      run_migration_cell(Semantics::kFig1Immutable, policy(), seed());
  // The move is invisible to loose reads: the source serves through the
  // handoff, and the stale-directory heal retries inside the client.
  EXPECT_TRUE(cell.finished);
}

TEST_P(MigrationSweep, Fig3) {
  const MigrationCell cell =
      run_migration_cell(Semantics::kFig3ImmutableFailAware, policy(), seed());
  EXPECT_TRUE(cell.finished);
}

TEST_P(MigrationSweep, Fig4) {
  const MigrationCell cell =
      run_migration_cell(Semantics::kFig4Snapshot, policy(), seed());
  // The snapshot's freeze may collide with the handoff window (rejected as
  // transient unreachability and retried) — it must still end cleanly.
  EXPECT_TRUE(cell.finished || cell.failure.has_value());
}

TEST_P(MigrationSweep, Fig5) {
  const MigrationCell cell =
      run_migration_cell(Semantics::kFig5GrowOnlyPessimistic, policy(), seed());
  EXPECT_TRUE(cell.finished || cell.failure.has_value());
}

TEST_P(MigrationSweep, Fig6) {
  const MigrationCell cell =
      run_migration_cell(Semantics::kFig6Optimistic, policy(), seed());
  EXPECT_TRUE(cell.finished);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, MigrationSweep,
    ::testing::Combine(::testing::Values(ReadPolicy::kPrimaryOnly,
                                         ReadPolicy::kNearest,
                                         ReadPolicy::kQuorum),
                       ::testing::Range<std::uint64_t>(500, 503)));

TEST(MigrationDeterminism, SameCellTwiceIsByteIdentical) {
  const MigrationCell a =
      run_migration_cell(Semantics::kFig6Optimistic, ReadPolicy::kNearest, 501);
  const MigrationCell b =
      run_migration_cell(Semantics::kFig6Optimistic, ReadPolicy::kNearest, 501);
  EXPECT_EQ(a.yields, b.yields);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.epoch, b.epoch);
  // The whole telemetry export — chunk counts, catch-up rounds, epoch
  // bumps, wrong-epoch heals — is byte-identical across same-seed runs.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(MigrationDeterminism, LockedCellTwiceIsByteIdentical) {
  // A fig5 cell exercises the abort path (pins block the move); that path,
  // too, must be bit-for-bit reproducible.
  const MigrationCell a = run_migration_cell(
      Semantics::kFig5GrowOnlyPessimistic, ReadPolicy::kPrimaryOnly, 502);
  const MigrationCell b = run_migration_cell(
      Semantics::kFig5GrowOnlyPessimistic, ReadPolicy::kPrimaryOnly, 502);
  EXPECT_EQ(a.yields, b.yields);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

// ---------------------------------------------------------------------------
// Replication-mode axis (src/crdt, DESIGN.md decision 16): the same scripted
// world — seeded members, four mid-run adds, one iterating client — runs
// under home-primary and OR-Set replication across partition schedules.
// Under every schedule that cuts the client off the home primary, home-
// primary mode must reject the scripted writes while OR-Set accepts them at
// whatever host the client can still reach; once the partition heals and
// anti-entropy quiesces, every OR-Set host must agree element-for-element
// (spec::check_converged). The script is add-only so the mutating figures'
// environment constraints (fig5 grow-only included) stay true by
// construction, never by weakening a check.

enum class PartitionSchedule {
  kNone,             ///< no partition: both modes accept everything
  kIsolateMinority,  ///< {client, s1} | {s0, s2}: one replica reachable
  kIsolatePrimary,   ///< {s0} | {client, s1, s2}: the home alone is cut off
};

const char* to_string(PartitionSchedule schedule) {
  switch (schedule) {
    case PartitionSchedule::kNone:
      return "none";
    case PartitionSchedule::kIsolateMinority:
      return "isolate-minority";
    case PartitionSchedule::kIsolatePrimary:
      return "isolate-primary";
  }
  return "?";
}

struct ReplicationCell {
  bool finished = false;
  std::optional<FailureKind> failure;
  std::vector<ObjectRef> yields;
  std::size_t accepted = 0;  ///< scripted writes acknowledged
  std::size_t rejected = 0;  ///< scripted writes that failed
  bool converged = false;    ///< all hosts agree after heal + quiesce
  std::string metrics_json;
};

ReplicationCell run_replication_cell(Semantics semantics, ReplicationMode mode,
                                     PartitionSchedule schedule,
                                     std::uint64_t seed) {
  obs::MetricsRegistry reg;
  Simulator sim;
  Topology topo;
  const NodeId client_node = topo.add_node("client");
  std::vector<NodeId> servers;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(topo.add_node("s" + std::to_string(i)));
  }
  topo.connect_full_mesh(Duration::millis(5));
  RpcNetwork net{sim, topo, Rng{seed}};
  Repository repo{net};
  StoreServerOptions server_options;
  server_options.pull_interval = Duration::millis(20);
  server_options.metrics = &reg;
  for (const NodeId node : servers) repo.add_server(node, server_options);

  // One fragment anchored on s0 with replicas on s1 and s2 — the identical
  // placement in both modes. Elements are homed on s1, which every schedule
  // leaves reachable from the client: the partitions stress membership
  // writes and reads, never element fetches.
  const CollectionId coll = repo.create_collection({servers[0]}, mode);
  repo.add_replica(coll, 0, servers[1]);
  repo.add_replica(coll, 0, servers[2]);
  std::vector<ObjectRef> objects;
  for (int i = 0; i < 8; ++i) {
    objects.push_back(repo.create_object(servers[1], "p" + std::to_string(i)));
    if (mode == ReplicationMode::kOrSet) {
      repo.server_at(servers[0])->seed_orset_member(coll, objects.back());
    } else {
      repo.seed_member(coll, objects.back());
    }
  }
  // Let replicas (home mode) or peers (OR-Set) absorb the seeds before the
  // probe snapshots the initial ground truth.
  sim.run_until(SimTime{} + Duration::millis(100));
  spec::TimelineProbe probe{repo, coll};

  sim.schedule(Duration::millis(10), [&topo, client_node, &servers, schedule] {
    switch (schedule) {
      case PartitionSchedule::kNone:
        break;
      case PartitionSchedule::kIsolateMinority:
        topo.partition({{client_node, servers[1]}, {servers[0], servers[2]}});
        break;
      case PartitionSchedule::kIsolatePrimary:
        topo.partition({{servers[0]}, {client_node, servers[1], servers[2]}});
        break;
    }
  });
  sim.schedule(Duration::millis(160), [&topo] { topo.heal(); });

  // Four scripted adds through the RPC client, all landing inside the
  // partition window (abs. 120-220ms): home mode must route them to the
  // unreachable primary, OR-Set to the nearest host that still answers.
  ClientOptions mutator_options;
  mutator_options.metrics = &reg;
  RepositoryClient mutator{repo, client_node, mutator_options};
  auto accepted = std::make_shared<std::size_t>(0);
  auto rejected = std::make_shared<std::size_t>(0);
  Rng script_rng{seed + 1};
  for (int i = 0; i < 4; ++i) {
    const ObjectRef ref =
        repo.create_object(servers[1], "x" + std::to_string(i));
    const Duration at =
        Duration::millis(20 + static_cast<int>(script_rng.uniform(100)));
    sim.schedule(at, [&sim, &mutator, coll, ref, accepted, rejected] {
      sim.spawn([](RepositoryClient& c, CollectionId id, ObjectRef r,
                   std::shared_ptr<std::size_t> ok,
                   std::shared_ptr<std::size_t> bad) -> Task<void> {
        const auto result = co_await c.add(id, r);
        ++(result.has_value() ? *ok : *bad);
      }(mutator, coll, ref, accepted, rejected));
    });
  }

  ClientOptions client_options;
  client_options.read_policy = ReadPolicy::kNearest;
  client_options.metrics = &reg;
  RepositoryClient client{repo, client_node, client_options};
  RepoSetView view{client, coll};
  spec::RepoGroundTruth truth{repo, coll, client_node};
  spec::TraceRecorder recorder{truth};
  IteratorOptions options;
  options.recorder = &recorder;
  options.retry = RetryPolicy{500, Duration::millis(25)};
  auto iterator = make_elements_iterator(view, semantics, options);
  const DrainResult drained = run_task(sim, drain(*iterator));

  ReplicationCell cell;
  cell.finished = drained.finished();
  if (drained.failure()) cell.failure = drained.failure()->kind;
  for (const ObjectRef ref : iterator->yielded()) cell.yields.push_back(ref);

  const spec::IterationTrace trace = recorder.finish();
  const spec::MembershipTimeline& timeline = probe.timeline();
  const char* mode_label =
      mode == ReplicationMode::kOrSet ? "orset" : "home-primary";
  switch (semantics) {
    case Semantics::kFig4Snapshot: {
      // Fig4's environment is failure-free, like fig5's below: its atomic
      // snapshot may abort against an unreachable anchor host, which is
      // outside what the figure specifies — binding only without partitions.
      if (schedule == PartitionSchedule::kNone) {
        const auto report = spec::check_fig4(trace);
        EXPECT_TRUE(report.satisfied())
            << "fig4 " << mode_label << " " << to_string(schedule) << " seed "
            << seed << ": "
            << (report.violations().empty() ? "-"
                                            : report.violations().front());
      }
      break;
    }
    case Semantics::kFig5GrowOnlyPessimistic: {
      // Fig5's environment is failure-free: under a partition the iterator
      // is outside its specification (its fragment pin can fail against an
      // unreachable anchor even while every member stays element-reachable),
      // so the ensures clause is only binding on the no-partition schedule.
      if (schedule == PartitionSchedule::kNone) {
        const auto report = spec::check_fig5(trace);
        EXPECT_TRUE(report.satisfied())
            << "fig5 " << mode_label << " " << to_string(schedule) << " seed "
            << seed << ": "
            << (report.violations().empty() ? "-"
                                            : report.violations().front());
      }
      // The script is add-only, so the figure's environment constraint held.
      EXPECT_TRUE(spec::check_constraint_grow_only(timeline,
                                                   trace.first_time(),
                                                   trace.last_time())
                      .satisfied());
      break;
    }
    case Semantics::kFig6Optimistic: {
      const auto report = spec::check_fig6(trace, timeline);
      EXPECT_TRUE(report.satisfied())
          << "fig6 " << mode_label << " " << to_string(schedule) << " seed "
          << seed << ": "
          << (report.violations().empty() ? "-" : report.violations().front());
      break;
    }
    case Semantics::kFig1Immutable:
    case Semantics::kFig3ImmutableFailAware:
      break;  // excluded: their environments forbid concurrent mutation
  }
  std::set<ObjectRef> unique;
  for (const ObjectRef ref : cell.yields) {
    EXPECT_TRUE(unique.insert(ref).second);
    EXPECT_TRUE(timeline.present_in_window(ref, trace.first_time(),
                                           trace.last_time()))
        << "yielded an element that was never a member in the window";
  }

  // Heal (if the drain ended early) and quiesce, then the convergence
  // clause: every OR-Set host reports the same member sequence.
  sim.run_until(SimTime{} + Duration::millis(700));
  cell.accepted = *accepted;
  cell.rejected = *rejected;
  if (mode == ReplicationMode::kOrSet) {
    cell.converged =
        spec::check_converged(spec::orset_fragment_members(repo, coll, 0))
            .satisfied();
  } else {
    cell.converged = true;  // home mode: the primary is the value
  }
  repo.stop_all_daemons();
  sim.run();  // drain daemons so coroutine frames unwind
  cell.metrics_json = reg.to_json();
  return cell;
}

class ReplicationModeSweep
    : public ::testing::TestWithParam<
          std::tuple<PartitionSchedule, std::uint64_t>> {
 protected:
  [[nodiscard]] PartitionSchedule schedule() const {
    return std::get<0>(GetParam());
  }
  [[nodiscard]] std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(ReplicationModeSweep, Fig6OrSetServesWhereHomePrimaryBlocks) {
  const ReplicationCell home = run_replication_cell(
      Semantics::kFig6Optimistic, ReplicationMode::kHomePrimary, schedule(),
      seed());
  const ReplicationCell orset = run_replication_cell(
      Semantics::kFig6Optimistic, ReplicationMode::kOrSet, schedule(), seed());
  // Both modes finish the optimistic iteration (reads ride the partition
  // out against the reachable replica), but only OR-Set accepts writes.
  EXPECT_TRUE(home.finished);
  EXPECT_TRUE(orset.finished);
  EXPECT_EQ(orset.accepted, 4u) << to_string(schedule());
  EXPECT_EQ(orset.rejected, 0u) << to_string(schedule());
  EXPECT_TRUE(orset.converged) << to_string(schedule());
  if (schedule() == PartitionSchedule::kNone) {
    EXPECT_EQ(home.accepted, 4u);
  } else {
    // Every scripted write lands inside the partition window, and home mode
    // must route each to the unreachable primary: all are rejected.
    EXPECT_EQ(home.accepted, 0u) << to_string(schedule());
    EXPECT_EQ(home.rejected, 4u) << to_string(schedule());
  }
}

TEST_P(ReplicationModeSweep, Fig4SnapshotHoldsUnderOrSet) {
  const ReplicationCell cell = run_replication_cell(
      Semantics::kFig4Snapshot, ReplicationMode::kOrSet, schedule(), seed());
  // The atomic snapshot finishes or fails cleanly; convergence must hold
  // either way once the partition heals.
  EXPECT_TRUE(cell.finished || cell.failure.has_value());
  EXPECT_TRUE(cell.converged) << to_string(schedule());
}

TEST_P(ReplicationModeSweep, Fig5PessimisticStaysCleanUnderOrSet) {
  const ReplicationCell cell =
      run_replication_cell(Semantics::kFig5GrowOnlyPessimistic,
                           ReplicationMode::kOrSet, schedule(), seed());
  // Pessimistic pinning may abort against a partitioned host — but only
  // cleanly, and never at the cost of post-heal convergence.
  EXPECT_TRUE(cell.finished || cell.failure.has_value());
  EXPECT_TRUE(cell.converged) << to_string(schedule());
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ReplicationModeSweep,
    ::testing::Combine(::testing::Values(PartitionSchedule::kNone,
                                         PartitionSchedule::kIsolateMinority,
                                         PartitionSchedule::kIsolatePrimary),
                       ::testing::Range<std::uint64_t>(600, 603)));

TEST(ReplicationModeDeterminism, SameCellTwiceIsByteIdentical) {
  const ReplicationCell a = run_replication_cell(
      Semantics::kFig6Optimistic, ReplicationMode::kOrSet,
      PartitionSchedule::kIsolateMinority, 601);
  const ReplicationCell b = run_replication_cell(
      Semantics::kFig6Optimistic, ReplicationMode::kOrSet,
      PartitionSchedule::kIsolateMinority, 601);
  EXPECT_EQ(a.yields, b.yields);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.converged, b.converged);
  // The whole telemetry export — pull rounds, snapshot joins, write
  // failovers — is byte-identical across same-seed runs.
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

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
