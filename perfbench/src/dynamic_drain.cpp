// dynamic_drain: the paper's own unit of work, one next() invocation. A
// closed loop of four readers repeatedly drains sets fragmented over four
// servers for 200 s of simulated time, one run in three with Fig 5 (pinned
// grow-only) and the rest with Fig 6, over 2-100 ms wide-area links while
// one writer per set churns membership.
// Every run is recorded and checked against its figure. Admission control
// is off and writes are few. A short fault script on eight replicated
// collections follows, for converge_ms and recovery_ms.

#include "harness.hpp"

namespace weakset::perfbench {
namespace {

constexpr int kServers = 4;
constexpr std::size_t kReaders = 4;
constexpr std::size_t kSets = 4;
constexpr std::size_t kMembers = 48;  ///< initial members per set
/// Readers start runs while the clock is inside this window: a fixed
/// simulated time rather than a fixed run count, so every seed churns (and
/// grows the WAL and the timelines) for as long as the others.
const Duration kReadWindow = Duration::seconds(200);
const Duration kChurnInterval = Duration::millis(300);
/// The churn writer's links: one near, two middle, one far server, so the
/// median write lands inside a latency cluster rather than between two.
const Duration kChurnLatency[kServers] = {
    Duration::millis(2), Duration::millis(30), Duration::millis(30),
    Duration::millis(100)};

/// One-way latency from client `client` to server `server`: 2 ms for the
/// nearest server up to 100 ms for the farthest, rotated per client.
Duration wide_area(std::size_t client, std::size_t server) {
  const auto rank = static_cast<std::int64_t>((server + client) % kServers);
  return Duration::millis(2) +
         Duration::nanos(Duration::millis(98).count_nanos() * rank /
                         (kServers - 1));
}

class DynamicDrain final : public Workload {
 public:
  DynamicDrain(Bench& bench, std::uint64_t seed) : bench_(bench), seed_(seed) {
    for (int i = 0; i < kServers; ++i) {
      servers_.push_back(topo_.add_node("server" + std::to_string(i)));
    }
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers_.push_back(topo_.add_node("reader" + std::to_string(r)));
    }
    churn_node_ = topo_.add_node("churn");
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      for (std::size_t r = 0; r < kReaders; ++r) {
        topo_.connect(readers_[r], servers_[s], wide_area(r, s));
      }
      topo_.connect(churn_node_, servers_[s], kChurnLatency[s]);
      for (std::size_t t = s + 1; t < servers_.size(); ++t) {
        topo_.connect(servers_[s], servers_[t], Duration::millis(30));
      }
    }
    topo_.set_routing(Topology::Routing::kDirectOnly);
    net_ = std::make_unique<RpcNetwork>(bench.sim, topo_,
                                        Rng{derive_seed(seed, 1)});
    repo_ = std::make_unique<Repository>(*net_);
    for (const NodeId node : servers_) repo_->add_server(node);

    for (std::size_t c = 0; c < kSets; ++c) {
      const CollectionId id = repo_->create_collection(servers_);
      std::vector<ObjectRef> pool;
      for (std::size_t i = 0; i < 2 * kMembers; ++i) {
        const ObjectRef ref = repo_->create_object(
            servers_[i % servers_.size()],
            "set" + std::to_string(c) + "-" + std::to_string(i));
        pool.push_back(ref);
        if (i < kMembers) repo_->seed_member(id, ref);
      }
      collections_.push_back(id);
      pools_.push_back(std::move(pool));
      probes_.push_back(std::make_unique<spec::TimelineProbe>(*repo_, id));
    }

    sets_ = std::make_unique<ReplicatedSets>(
        bench, *repo_, servers_, std::vector<NodeId>{churn_node_},
        ReplicatedConfig{},
        derive_seed(seed, 4));
  }

  ~DynamicDrain() override {
    churn_stop_ = true;
    sets_->stop();
    repo_->stop_all_daemons();
    bench_.sim.run();
  }

  void run() override {
    Simulator& sim = bench_.sim;
    const SimTime started = sim.now();
    for (std::size_t c = 0; c < kSets; ++c) sim.spawn(churn(*this, c));
    for (std::size_t r = 0; r < kReaders; ++r) sim.spawn(reader(*this, r));
    while (readers_done_ < kReaders && sim.step()) {
    }
    churn_stop_ = true;
    if (!run_until_true(sim, [this] { return churn_exited_ == kSets; },
                        Duration::millis(1), Duration::seconds(60))) {
      bench_.violation("churn writers did not stop");
    }
    end_main_phase(bench_, started);

    sets_->start();
    run_fault_rounds(bench_, *repo_, servers_, servers_[3], *sets_,
                     /*rounds=*/12);
    finish_sets(bench_, *sets_);
  }

 private:
  static Task<void> reader(DynamicDrain& self, std::size_t index) {
    RepositoryClient client{*self.repo_, self.readers_[index]};
    const SimTime window_end = self.bench_.sim.now() + kReadWindow;
    for (std::size_t k = 0; self.bench_.sim.now() < window_end; ++k) {
      const std::size_t set = (index + k) % kSets;
      // One run in three is Fig 5: its first next() also pins the set, so
      // an even split would put first_yield_p50_ms between two clusters.
      const Semantics semantics = (index + k) % 3 == 0
                                      ? Semantics::kFig5GrowOnlyPessimistic
                                      : Semantics::kFig6Optimistic;
      const spec::MembershipTimeline* timeline = &self.probes_[set]->timeline();
      const IterateKnobs knobs{50, Duration::millis(100), 8};
      co_await run_iterate(self.bench_, client, self.collections_[set],
                           semantics, timeline, /*count_each_next=*/true,
                           knobs);
    }
    ++self.readers_done_;
  }

  /// One writer per set, alternating an add of a random non-member with a
  /// remove of a random member at a fixed pace, so set sizes, and with them
  /// the length and memory of every recorded run, stay level from seed to
  /// seed instead of random-walking.
  /// It is the only writer of its set, so its view of membership is exact.
  static Task<void> churn(DynamicDrain& self, std::size_t set) {
    Simulator& sim = self.bench_.sim;
    RepositoryClient client{*self.repo_, self.churn_node_};
    Rng rng{derive_seed(self.seed_, 10 + set)};
    const std::vector<ObjectRef>& pool = self.pools_[set];
    std::vector<std::size_t> members;
    std::vector<std::size_t> others;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      (i < kMembers ? members : others).push_back(i);
    }
    bool add = true;
    while (!self.churn_stop_) {
      co_await sim.delay(kChurnInterval);
      if (self.churn_stop_) break;
      std::vector<std::size_t>& from = add ? others : members;
      std::vector<std::size_t>& to = add ? members : others;
      const auto pick = static_cast<std::size_t>(rng.uniform(from.size()));
      const std::size_t i = from[pick];
      const Result<bool> result = co_await timed_write(
          self.bench_, client, self.collections_[set], pool[i], add);
      if (result) {
        from[pick] = from.back();
        from.pop_back();
        to.push_back(i);
        add = !add;
      }
    }
    ++self.churn_exited_;
  }

  Bench& bench_;
  std::uint64_t seed_;
  Topology topo_;
  std::vector<NodeId> servers_;
  std::vector<NodeId> readers_;
  NodeId churn_node_;
  std::unique_ptr<RpcNetwork> net_;
  std::unique_ptr<Repository> repo_;
  std::vector<CollectionId> collections_;
  std::vector<std::vector<ObjectRef>> pools_;
  std::vector<std::unique_ptr<spec::TimelineProbe>> probes_;
  std::unique_ptr<ReplicatedSets> sets_;
  std::size_t readers_done_ = 0;
  std::size_t churn_exited_ = 0;
  bool churn_stop_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_dynamic_drain(Bench& bench,
                                             std::uint64_t seed) {
  return std::make_unique<DynamicDrain>(bench, seed);
}

}  // namespace weakset::perfbench
