// durable_churn: the write-path counterpart of dynamic_drain. Closed-loop
// writers on three client nodes run about 95% add/remove and 5% Fig 6
// drains (a tenth of the home-primary writers' ops) against eight
// replicated collections: four home-primary (primary plus two pulled
// replicas) and four OR-Set (three multi-master hosts). Durable acks and
// the block storage engine are on, so every write pays the WAL group
// commit and checkpoints go through the block cache. The fault script runs
// during the load: each of twelve rounds partitions one server from the
// others and heals it, then crashes it with amnesia and restarts it. The
// run ends with the convergence, replica catch-up and lost-write gate.

#include "harness.hpp"

namespace weakset::perfbench {
namespace {

constexpr int kServers = 4;
constexpr std::size_t kClients = 3;

class DurableChurn final : public Workload {
 public:
  DurableChurn(Bench& bench, std::uint64_t seed) : bench_(bench) {
    for (int i = 0; i < kServers; ++i) {
      servers_.push_back(topo_.add_node("server" + std::to_string(i)));
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(topo_.add_node("client" + std::to_string(c)));
    }
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      // Client c sits 2 ms from server 3 - c, then 10/18/26 ms away from
      // the rest: client0 writes OR-Sets through the server that crashes.
      for (std::size_t c = 0; c < kClients; ++c) {
        const auto rank = static_cast<std::int64_t>((s + 1 + c) % kServers);
        topo_.connect(clients_[c], servers_[s],
                      Duration::millis(2 + 8 * rank));
      }
      for (std::size_t t = s + 1; t < servers_.size(); ++t) {
        topo_.connect(servers_[s], servers_[t], Duration::millis(15));
      }
    }
    topo_.set_routing(Topology::Routing::kDirectOnly);
    net_ = std::make_unique<RpcNetwork>(bench.sim, topo_,
                                        Rng{derive_seed(seed, 1)});
    repo_ = std::make_unique<Repository>(*net_);
    StoreServerOptions sopts;
    sopts.durability.durable_acks = true;
    sopts.durability.block.enabled = true;
    sopts.durability.block.cache_bytes = 64 * 1024;
    sopts.durability.block.buckets = 8;
    for (const NodeId node : servers_) repo_->add_server(node, sopts);

    ReplicatedConfig rc;
    rc.pool = 48;
    rc.think = Duration::millis(4);
    rc.iterate_share = 0.1;
    sets_ = std::make_unique<ReplicatedSets>(bench, *repo_, servers_,
                                             clients_, rc,
                                             derive_seed(seed, 4));
  }

  ~DurableChurn() override {
    sets_->stop();
    repo_->stop_all_daemons();
    bench_.sim.run();
  }

  void run() override {
    Simulator& sim = bench_.sim;
    const SimTime started = sim.now();
    sets_->start();
    run_fault_rounds(bench_, *repo_, servers_, servers_[3], *sets_,
                     /*rounds=*/12);
    sim.run_until(sim.now() + Duration::millis(200));
    finish_sets(bench_, *sets_);
    end_main_phase(bench_, started);
  }

 private:
  Bench& bench_;
  Topology topo_;
  std::vector<NodeId> servers_;
  std::vector<NodeId> clients_;
  std::unique_ptr<RpcNetwork> net_;
  std::unique_ptr<Repository> repo_;
  std::unique_ptr<ReplicatedSets> sets_;
};

}  // namespace

std::unique_ptr<Workload> make_durable_churn(Bench& bench,
                                             std::uint64_t seed) {
  return std::make_unique<DurableChurn>(bench, seed);
}

}  // namespace weakset::perfbench
