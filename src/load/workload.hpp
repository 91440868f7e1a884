#pragma once

// LoadEngine: open- and closed-loop workload generation at population scale
// (DESIGN.md decision 15).
//
// Every earlier bench drives one (or a handful of) client coroutines. The
// LoadEngine spawns tens of thousands of simulated client *sessions* on the
// sim clock: sessions arrive as a Poisson process, live for a bounded number
// of operations, and depart — the churn of a real user population. Each
// session belongs to a tenant (round-robin by arrival index), picks
// collections inside its tenant's namespace with Zipfian popularity
// (load/zipf.hpp), and runs a fixed op mix of inserts, removes, and full
// iterator drains at Fig 1 semantics (constants in load/workload.cpp).
//
// Two pacing disciplines:
//
//   kClosedLoop — a session waits for each op to complete, then thinks
//                 (exponential think time) before the next. Offered load is
//                 throttled by completion: the classic latency-measurement
//                 regime.
//   kOpenLoop   — a session fires ops on an exponential timer regardless of
//                 completion, like independent users who do not coordinate.
//                 Offered load is set by the timer alone, which is what
//                 makes genuine *overload* (offered > capacity) expressible;
//                 the session departs only after its in-flight ops resolve.
//
// Scale without O(nodes^2) topology: sessions are lightweight coroutines
// multiplexed over a small set of client gateway nodes (a session's RPCs
// originate at its gateway), so 100k sessions need 8 gateway nodes, not
// 100k topology nodes.
//
// Outcome accounting distinguishes kOverloaded (the admission controller
// shed the request — the explicit back-off signal) from other failures, so
// goodput (ops_ok / elapsed) vs offered load (ops_offered / elapsed) curves
// fall straight out of the stats.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/iterator.hpp"
#include "load/zipf.hpp"
#include "obs/metrics.hpp"
#include "store/repository.hpp"

namespace weakset {
class RepositoryClient;  // store/client.hpp (sessions own one each)
}

namespace weakset::load {

/// How sessions pace their operations.
enum class ArrivalMode : std::uint8_t {
  kClosedLoop,  ///< wait for completion + think time (self-throttling)
  kOpenLoop,    ///< fire on a timer regardless of completion (can overload)
};

struct LoadOptions {
  /// Total sessions to arrive over the run.
  std::size_t sessions = 1000;
  /// Tenants (sessions round-robin across them; collections are tagged so
  /// the server's admission queues are per-tenant).
  std::size_t tenants = 4;
  /// Collections per tenant namespace; within a tenant, session ops pick
  /// collection 0 most often (Zipfian rank by popularity).
  std::size_t collections_per_tenant = 4;
  /// Fragments per collection (round-robin over the repo's servers).
  std::size_t fragments = 1;
  /// Pre-created object pool per collection; sessions insert/remove pool
  /// objects (pure data-path RPCs — no global-state mutation mid-run). The
  /// first half of each pool is seeded as initial membership.
  std::size_t objects_per_collection = 16;
  /// Session arrival process: exponential inter-arrival with this mean.
  Duration mean_interarrival = Duration::micros(500);
  /// Session lifetime in operations: drawn per session, uniform in
  /// [ops_per_session/2, ops_per_session*3/2] (min 1).
  std::size_t ops_per_session = 6;
  ArrivalMode mode = ArrivalMode::kClosedLoop;
  /// Closed loop: exponential think time between ops.
  Duration think_time = Duration::millis(10);
  /// Open loop: exponential op-timer interval (sets offered load).
  Duration op_interval = Duration::millis(10);
  /// Per-RPC timeout of session clients: under kUnbounded admission a
  /// queued-forever request must eventually fail at the caller.
  Duration rpc_timeout = Duration::seconds(1);
  /// Per-gateway placement sources. When non-empty (size must equal the
  /// gateway count) each session's client resolves placement through its
  /// gateway's entry instead of the authoritative map — the directory data
  /// path (DESIGN.md decision 12) under population-scale load, with
  /// kWrongEpoch self-heal when the rebalancer moves a fragment mid-run.
  std::vector<DirectorySource*> directories;
  std::uint64_t seed = 1;
  /// Telemetry sink. nullptr = the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Run accounting.
struct LoadStats {
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_finished = 0;
  std::uint64_t ops_offered = 0;     ///< ops issued (all kinds)
  std::uint64_t ops_ok = 0;          ///< completed successfully (goodput)
  std::uint64_t ops_overloaded = 0;  ///< explicit kOverloaded rejections
  std::uint64_t ops_failed = 0;      ///< other failures (timeouts, crashes)
  std::uint64_t elements_yielded = 0;  ///< elements across iterate drains
};

/// Drives one workload run against a Repository through gateway nodes.
/// Usage: build() once (pre-run; creates collections, pools, tenant tags),
/// then run_to_completion() — or spawn run() and drive the simulator
/// yourself.
class LoadEngine {
 public:
  LoadEngine(Repository& repo, std::vector<NodeId> gateways,
             LoadOptions options);
  ~LoadEngine();
  LoadEngine(const LoadEngine&) = delete;
  LoadEngine& operator=(const LoadEngine&) = delete;

  /// Creates the tenant collections, object pools, and tenant tags. Call
  /// before the simulator runs (setup is direct state manipulation).
  void build();

  /// The whole run as one coroutine: session arrivals (exponential), then a
  /// join loop until every session departed.
  [[nodiscard]] Task<void> run();

  /// Convenience driver: run_task(sim, run()).
  void run_to_completion();

  [[nodiscard]] const LoadStats& stats() const noexcept { return stats_; }

  /// All collections, grouped tenant-major: collections()[t * C + rank] is
  /// tenant t's rank-th most popular collection.
  [[nodiscard]] const std::vector<CollectionId>& collections() const noexcept {
    return collections_;
  }

  [[nodiscard]] const LoadOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Open-loop bookkeeping shared between a session and its in-flight ops
  /// (the session departs only once all ops resolved).
  struct SessionSync;

  [[nodiscard]] std::size_t gateway_of(std::size_t session_index) const {
    return session_index % gateways_.size();
  }

  Task<void> session(std::size_t index);
  /// One operation: pick collection (Zipf) + op kind (the fixed mix), run
  /// it, classify the outcome into stats_ and the latency histogram.
  Task<void> run_op(RepositoryClient& client, std::size_t tenant, Rng& rng);
  /// Open-loop wrapper: run_op, then signal the session's sync block.
  Task<void> run_op_detached(std::shared_ptr<RepositoryClient> client,
                             std::size_t tenant, Rng rng,
                             std::shared_ptr<SessionSync> sync);

  Repository& repo_;
  LoadOptions options_;
  obs::MetricsRegistry& metrics_;
  std::vector<NodeId> gateways_;
  LoadStats stats_;
  std::vector<CollectionId> collections_;
  /// Object pools, aligned with collections_.
  std::vector<std::vector<ObjectRef>> pools_;
  /// Rank sampler within a tenant namespace (const after build).
  std::optional<ZipfianSampler> zipf_;
};

}  // namespace weakset::load
