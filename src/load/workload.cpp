#include "load/workload.hpp"

#include <cassert>
#include <string>
#include <utility>

#include "core/repo_view.hpp"
#include "sim/channel.hpp"
#include "store/client.hpp"

namespace weakset::load {
namespace {

/// This module's telemetry names, interned once per process.
struct LoadMetrics {
  obs::CounterId iterate_elements{"load.iterate_elements"};
  obs::CounterId ops_failed{"load.ops_failed"};
  obs::CounterId ops_offered{"load.ops_offered"};
  obs::CounterId ops_ok{"load.ops_ok"};
  obs::CounterId ops_overloaded{"load.ops_overloaded"};
  obs::CounterId sessions{"load.sessions"};
  obs::CounterId sessions_finished{"load.sessions_finished"};
  obs::HistogramId op_latency_ns{"load.op_latency_ns"};
};
const LoadMetrics kMetrics{};

/// Zipfian skew of collection popularity (YCSB default 0.99).
constexpr double kZipfTheta = 0.99;

/// Relative weights of the per-session op mix, normalised into cumulative
/// thresholds for one uniform draw (iterate is the remainder).
constexpr double kInsertWeight = 0.45;
constexpr double kRemoveWeight = 0.25;
constexpr double kIterateWeight = 0.30;
constexpr double kMixTotal = kInsertWeight + kRemoveWeight + kIterateWeight;
constexpr double kMixInsert = kInsertWeight / kMixTotal;
constexpr double kMixRemove = kMixInsert + kRemoveWeight / kMixTotal;

/// Which figure semantics iterate ops run.
constexpr Semantics kIterateSemantics = Semantics::kFig1Immutable;

/// Join-poll granularity of run(): it returns at the first poll tick after
/// the last session departs.
constexpr Duration kPollInterval = Duration::millis(5);

/// Per-session seed fork: splitmix-style mixing of the run seed and the
/// session index, so each session's stream is independent of spawn order
/// (same idiom as StoreServer's per-node disk lottery).
std::uint64_t session_seed(std::uint64_t seed, std::size_t index) {
  return seed ^ (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(index) +
                                          1));
}

}  // namespace

/// Open-loop bookkeeping shared between a session and its in-flight ops. The
/// Gate resumes through the event queue like every sim primitive.
struct LoadEngine::SessionSync {
  explicit SessionSync(Simulator& sim) : done(sim) {}
  std::size_t outstanding = 0;
  bool issued_all = false;
  Gate done;
};

LoadEngine::LoadEngine(Repository& repo, std::vector<NodeId> gateways,
                       LoadOptions options)
    : repo_(repo),
      options_(options),
      metrics_(obs::sink(options.metrics)),
      gateways_(std::move(gateways)) {
  assert(!gateways_.empty() && "load engine needs at least one gateway node");
  assert((options_.directories.empty() ||
          options_.directories.size() == gateways_.size()) &&
         "directories must be empty or per-gateway");
}

LoadEngine::~LoadEngine() = default;

void LoadEngine::build() {
  assert(collections_.empty() && "build() is once");
  assert(options_.tenants > 0 && options_.collections_per_tenant > 0);
  assert(options_.objects_per_collection > 0);
  const std::vector<NodeId>& servers = repo_.server_nodes();
  assert(!servers.empty() && "add servers before building the workload");

  zipf_.emplace(options_.collections_per_tenant, kZipfTheta);

  // Tenant-major collections; fragment primaries and object homes
  // round-robin over the servers with a per-collection offset so load
  // spreads evenly at build time (the *traffic* skew comes from Zipf).
  for (std::size_t t = 0; t < options_.tenants; ++t) {
    for (std::size_t c = 0; c < options_.collections_per_tenant; ++c) {
      const std::size_t base = t * options_.collections_per_tenant + c;
      std::vector<NodeId> primaries;
      primaries.reserve(options_.fragments);
      for (std::size_t f = 0; f < options_.fragments; ++f) {
        primaries.push_back(servers[(base + f) % servers.size()]);
      }
      const CollectionId id = repo_.create_collection(primaries);
      repo_.tag_tenant(id, t);
      std::vector<ObjectRef> pool;
      pool.reserve(options_.objects_per_collection);
      for (std::size_t o = 0; o < options_.objects_per_collection; ++o) {
        const NodeId home = servers[(base + o) % servers.size()];
        ObjectRef ref = repo_.create_object(
            home, "load-t" + std::to_string(t) + "-c" + std::to_string(c) +
                      "-o" + std::to_string(o));
        // Seed half of each pool as initial membership: removes have
        // something to remove, inserts have something absent to insert.
        if (o < options_.objects_per_collection / 2) {
          repo_.seed_member(id, ref);
        }
        pool.push_back(ref);
      }
      collections_.push_back(id);
      pools_.push_back(std::move(pool));
    }
  }
}

Task<void> LoadEngine::run() {
  assert(!collections_.empty() && "call build() before run()");
  Simulator& sim = repo_.sim();
  Rng arrivals{options_.seed};
  for (std::size_t index = 0; index < options_.sessions; ++index) {
    sim.spawn(session(index));
    co_await sim.delay(arrivals.exponential(options_.mean_interarrival));
  }
  // Join: poll until every session departed.
  while (stats_.sessions_finished < options_.sessions) {
    co_await sim.delay(kPollInterval);
  }
}

void LoadEngine::run_to_completion() { run_task(repo_.sim(), run()); }

Task<void> LoadEngine::session(std::size_t index) {
  const NodeId gateway = gateways_[gateway_of(index)];
  ++stats_.sessions_started;
  metrics_.add(kMetrics.sessions);
  Rng rng{session_seed(options_.seed, index)};
  const std::size_t tenant = index % options_.tenants;

  // Session lifetime: uniform around the configured mean op count.
  const auto lo =
      static_cast<std::int64_t>(std::max<std::size_t>(
          1, options_.ops_per_session / 2));
  const auto hi = static_cast<std::int64_t>(std::max<std::size_t>(
      static_cast<std::size_t>(lo), options_.ops_per_session * 3 / 2));
  const auto op_count =
      static_cast<std::size_t>(rng.uniform_range(lo, hi));

  ClientOptions copts;
  copts.rpc_timeout = options_.rpc_timeout;
  copts.metrics = options_.metrics;
  if (!options_.directories.empty()) {
    copts.directory = options_.directories[gateway_of(index)];
  }

  if (options_.mode == ArrivalMode::kClosedLoop) {
    RepositoryClient client{repo_, gateway, copts};
    for (std::size_t i = 0; i < op_count; ++i) {
      co_await repo_.sim().delay(rng.exponential(options_.think_time));
      co_await run_op(client, tenant, rng);
    }
  } else {
    // Open loop: fire ops on the timer regardless of completion (shared
    // client + sync block), then wait for stragglers before departing.
    auto client = std::make_shared<RepositoryClient>(repo_, gateway, copts);
    auto sync = std::make_shared<SessionSync>(repo_.sim());
    for (std::size_t i = 0; i < op_count; ++i) {
      ++sync->outstanding;
      repo_.sim().spawn(run_op_detached(client, tenant, rng.fork(), sync));
      co_await repo_.sim().delay(rng.exponential(options_.op_interval));
    }
    sync->issued_all = true;
    if (sync->outstanding > 0) co_await sync->done.wait();
  }
  ++stats_.sessions_finished;
  metrics_.add(kMetrics.sessions_finished);
}

Task<void> LoadEngine::run_op_detached(
    std::shared_ptr<RepositoryClient> client, std::size_t tenant, Rng rng,
    std::shared_ptr<SessionSync> sync) {
  co_await run_op(*client, tenant, rng);
  --sync->outstanding;
  if (sync->outstanding == 0 && sync->issued_all) sync->done.open();
}

Task<void> LoadEngine::run_op(RepositoryClient& client, std::size_t tenant,
                              Rng& rng) {
  ++stats_.ops_offered;
  metrics_.add(kMetrics.ops_offered);
  const std::size_t rank = zipf_->sample(rng);
  const std::size_t slot = tenant * options_.collections_per_tenant + rank;
  const CollectionId coll = collections_[slot];
  const std::vector<ObjectRef>& pool = pools_[slot];
  const double draw = rng.uniform_double();
  const SimTime start = repo_.sim().now();

  bool ok = false;
  std::optional<Failure> failure;
  if (draw < kMixRemove) {
    // No co_await inside a conditional expression: GCC 12 destroys the
    // selected arm's temporary before the copy-out (double free).
    const ObjectRef ref = rng.pick(pool);
    Result<bool> result{false};
    if (draw < kMixInsert) {
      result = co_await client.add(coll, ref);
    } else {
      result = co_await client.remove(coll, ref);
    }
    ok = result.has_value();
    if (!ok) failure = result.error();
  } else {
    RepoSetView view{client, coll};
    auto iterator = make_elements_iterator(view, kIterateSemantics, {});
    const DrainResult result = co_await drain(*iterator);
    stats_.elements_yielded += result.count();
    metrics_.add(kMetrics.iterate_elements, result.count());
    ok = result.finished();
    if (!ok && result.failure()) failure = *result.failure();
  }

  metrics_.record(kMetrics.op_latency_ns, repo_.sim().now() - start);
  if (ok) {
    ++stats_.ops_ok;
    metrics_.add(kMetrics.ops_ok);
  } else if (failure && failure->kind == FailureKind::kOverloaded) {
    ++stats_.ops_overloaded;
    metrics_.add(kMetrics.ops_overloaded);
  } else {
    ++stats_.ops_failed;
    metrics_.add(kMetrics.ops_failed);
  }
}

}  // namespace weakset::load
