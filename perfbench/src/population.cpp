// population: the e18 shape. An open loop of 100k Zipfian sessions over
// four gateways and four servers, the 45/25/30 insert/remove/iterate mix,
// reject admission (2 service slots, queues of 32 per tenant) and the
// least-loaded rebalancer live, as bench_e18_scale --rebalance runs it.
//
// The load engine runs 97% of the sessions. The benchmark runs the other
// 3% itself, with the same arrival process, mix and Zipfian popularity, so
// their ops can be timed and traced from outside and every iterate among
// them recorded and spec-checked (Fig 6: Fig 1's immutable-set premise
// does not hold under this much churn). After the load drains, a short
// fault script on eight replicated collections measures converge_ms and
// recovery_ms on the same servers.

#include "harness.hpp"

namespace weakset::perfbench {
namespace {

constexpr int kServers = 4;
constexpr int kGateways = 4;
constexpr std::size_t kSessions = 100'000;
constexpr std::size_t kSampleSessions = 3'000;
constexpr std::size_t kTenants = 8;
constexpr std::size_t kCollectionsPerTenant = 4;
constexpr std::size_t kSamplePool = 8;
const Duration kArrivalWindow = Duration::seconds(2);
const Duration kOpInterval = Duration::millis(5);

class Population final : public Workload {
 public:
  Population(Bench& bench, std::uint64_t seed)
      : bench_(bench), seed_(seed), zipf_(kCollectionsPerTenant, 0.99) {
    Simulator& sim = bench.sim;
    for (int i = 0; i < kServers; ++i) {
      servers_.push_back(topo_.add_node("server" + std::to_string(i)));
    }
    for (int i = 0; i < kGateways; ++i) {
      gateways_.push_back(topo_.add_node("gw" + std::to_string(i)));
    }
    for (int g = 0; g < kGateways; ++g) {
      for (int s = 0; s < kServers; ++s) {
        topo_.connect(gateways_[static_cast<std::size_t>(g)],
                      servers_[static_cast<std::size_t>(s)],
                      Duration::millis(5 + 5 * ((g + s) % kServers)));
      }
    }
    for (int i = 0; i < kServers; ++i) {
      for (int j = i + 1; j < kServers; ++j) {
        topo_.connect(servers_[static_cast<std::size_t>(i)],
                      servers_[static_cast<std::size_t>(j)],
                      Duration::millis(10));
      }
    }
    topo_.set_routing(Topology::Routing::kDirectOnly);
    net_ = std::make_unique<RpcNetwork>(sim, topo_, Rng{derive_seed(seed, 1)});
    repo_ = std::make_unique<Repository>(*net_);
    StoreServerOptions sopts;
    sopts.admission.enabled = true;
    sopts.admission.policy = AdmissionPolicy::kReject;
    sopts.admission.max_concurrency = 2;
    sopts.admission.max_queue_depth = 32;
    for (const NodeId node : servers_) repo_->add_server(node, sopts);

    for (const NodeId node : servers_) {
      engines_.push_back(
          std::make_unique<placement::MigrationEngine>(*repo_, node));
    }
    directory_ =
        std::make_unique<placement::DirectoryService>(*repo_, servers_[0]);
    for (const NodeId gw : gateways_) {
      dir_clients_.push_back(std::make_unique<placement::DirectoryClient>(
          *repo_, gw, servers_[0]));
    }

    load::LoadOptions options;
    options.sessions = kSessions - kSampleSessions;
    options.tenants = kTenants;
    options.collections_per_tenant = kCollectionsPerTenant;
    options.objects_per_collection = 16;
    options.mode = load::ArrivalMode::kOpenLoop;
    options.mean_interarrival =
        Duration::nanos(kArrivalWindow.count_nanos() /
                        static_cast<std::int64_t>(options.sessions));
    options.ops_per_session = 3;
    options.op_interval = kOpInterval;
    options.rpc_timeout = Duration::seconds(1);
    options.seed = derive_seed(seed, 2);
    for (const auto& client : dir_clients_) {
      options.directories.push_back(client.get());
    }
    engine_ = std::make_unique<load::LoadEngine>(*repo_, gateways_, options);
    engine_->build();

    placement::RebalancerOptions rb;
    rb.policy = placement::RebalancePolicy::kLeastLoaded;
    rb.interval = Duration::millis(200);
    rebalancer_ =
        std::make_unique<placement::Rebalancer>(*repo_, gateways_[0], rb);
    for (const CollectionId id : engine_->collections()) {
      rebalancer_->manage(id);
      std::vector<ObjectRef> pool;
      for (std::size_t i = 0; i < kSamplePool; ++i) {
        pool.push_back(repo_->create_object(
            servers_[i % servers_.size()],
            "sample-" + std::to_string(id.raw()) + "-" + std::to_string(i)));
      }
      sample_pools_.push_back(std::move(pool));
      probes_.push_back(std::make_unique<spec::TimelineProbe>(*repo_, id));
    }

    sets_ = std::make_unique<ReplicatedSets>(
        bench, *repo_, servers_,
        std::vector<NodeId>{gateways_[0], gateways_[1]}, ReplicatedConfig{},
        derive_seed(seed, 4));
  }

  ~Population() override {
    rebalancer_->stop();
    for (const auto& client : dir_clients_) client->stop();
    sets_->stop();
    repo_->stop_all_daemons();
    bench_.sim.run();
  }

  void run() override {
    Simulator& sim = bench_.sim;
    const SimTime started = sim.now();
    rebalancer_->start();
    bool engine_done = false;
    sim.spawn(drive_engine(*engine_, engine_done));
    sim.spawn(sample_arrivals(*this));
    while (!(engine_done && samples_done_) && sim.step()) {
    }
    rebalancer_->stop();
    for (const auto& client : dir_clients_) client->stop();
    // Drain the scan loop's final wakeup and any in-flight move.
    sim.run_until(sim.now() + Duration::millis(500));

    const load::LoadStats stats = engine_->stats();
    bench_.ops.attempted += stats.ops_offered;
    bench_.ops.ok += stats.ops_ok;
    bench_.ops.overloaded += stats.ops_overloaded;
    bench_.ops.failed += stats.ops_failed;
    end_main_phase(bench_, started);

    sets_->start();
    run_fault_rounds(bench_, *repo_, servers_, servers_[3], *sets_,
                     /*rounds=*/12);
    finish_sets(bench_, *sets_);
  }

 private:
  /// Open-loop bookkeeping of one sample session: it departs once all its
  /// detached ops resolved.
  struct SessionSync {
    explicit SessionSync(Simulator& sim) : done(sim) {}
    Gate done;
    std::size_t outstanding = 0;
    bool issued_all = false;
  };

  static Task<void> drive_engine(load::LoadEngine& engine, bool& done) {
    co_await engine.run();
    done = true;
  }

  static Task<void> sample_arrivals(Population& self) {
    Simulator& sim = self.bench_.sim;
    Rng rng{derive_seed(self.seed_, 3)};
    const Duration mean =
        Duration::nanos(kArrivalWindow.count_nanos() /
                        static_cast<std::int64_t>(kSampleSessions));
    for (std::size_t i = 0; i < kSampleSessions; ++i) {
      sim.spawn(sample_session(self, i, rng.next_u64()));
      co_await sim.delay(rng.exponential(mean));
    }
    while (self.sessions_done_ < kSampleSessions) {
      co_await sim.delay(Duration::millis(5));
    }
    self.samples_done_ = true;
  }

  static Task<void> sample_session(Population& self, std::size_t index,
                                   std::uint64_t seed) {
    Simulator& sim = self.bench_.sim;
    Rng rng{seed};
    // Gateways 1 and 2 only: from there the hot collection (rank 0, on
    // server 0) is neither the nearest nor the farthest, so the latency
    // medians fall inside its cluster instead of on a cluster edge.
    const std::size_t gw = 1 + index % 2;
    const std::size_t tenant = index % kTenants;
    const auto op_count = static_cast<std::size_t>(rng.uniform_range(1, 4));
    ClientOptions copts;
    copts.rpc_timeout = Duration::seconds(1);
    copts.directory = self.dir_clients_[gw].get();
    auto client = std::make_shared<RepositoryClient>(
        *self.repo_, self.gateways_[gw], copts);
    auto sync = std::make_shared<SessionSync>(sim);
    for (std::size_t i = 0; i < op_count; ++i) {
      ++sync->outstanding;
      sim.spawn(sample_op(self, client, sync, tenant, rng.next_u64()));
      co_await sim.delay(rng.exponential(kOpInterval));
    }
    sync->issued_all = true;
    if (sync->outstanding > 0) co_await sync->done.wait();
    ++self.sessions_done_;
  }

  static Task<void> sample_op(Population& self,
                              std::shared_ptr<RepositoryClient> client,
                              std::shared_ptr<SessionSync> sync,
                              std::size_t tenant, std::uint64_t seed) {
    Bench& bench = self.bench_;
    Rng rng{seed};
    const std::size_t slot =
        tenant * kCollectionsPerTenant + self.zipf_.sample(rng);
    const CollectionId coll = self.engine_->collections()[slot];
    const double draw = rng.uniform_double();
    if (draw < 0.70) {
      const ObjectRef ref = rng.pick(self.sample_pools_[slot]);
      const bool add = draw < 0.45;
      const Result<bool> result =
          co_await timed_write(bench, *client, coll, ref, add);
      static_cast<void>(result);
    } else {
      const spec::MembershipTimeline* timeline =
          &self.probes_[slot]->timeline();
      // No prefetch window: under this churn a prefetched element is
      // invalidated about half the time, which splits next() latency into
      // two equal clusters and leaves the median between them.
      const IterateKnobs knobs{3, Duration::millis(20), 1};
      co_await run_iterate(bench, *client, coll, Semantics::kFig6Optimistic,
                           timeline, /*count_each_next=*/false, knobs);
    }
    --sync->outstanding;
    if (sync->outstanding == 0 && sync->issued_all) sync->done.open();
  }

  Bench& bench_;
  std::uint64_t seed_;
  load::ZipfianSampler zipf_;
  Topology topo_;
  std::vector<NodeId> servers_;
  std::vector<NodeId> gateways_;
  std::unique_ptr<RpcNetwork> net_;
  std::unique_ptr<Repository> repo_;
  std::vector<std::unique_ptr<placement::MigrationEngine>> engines_;
  std::unique_ptr<placement::DirectoryService> directory_;
  std::vector<std::unique_ptr<placement::DirectoryClient>> dir_clients_;
  std::unique_ptr<load::LoadEngine> engine_;
  std::unique_ptr<placement::Rebalancer> rebalancer_;
  std::vector<std::vector<ObjectRef>> sample_pools_;
  std::vector<std::unique_ptr<spec::TimelineProbe>> probes_;
  std::unique_ptr<ReplicatedSets> sets_;
  std::size_t sessions_done_ = 0;
  bool samples_done_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_population(Bench& bench, std::uint64_t seed) {
  return std::make_unique<Population>(bench, seed);
}

}  // namespace weakset::perfbench
