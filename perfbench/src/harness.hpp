#pragma once

// What the three workloads share: benchmark-side spans, exact latency
// samples, the op ledger, a tracing SetView decorator, timed client calls,
// and replicated write sets driven through a partition/crash script.
//
// Everything here sits outside the library and calls only its public entry
// points. Spans and counters recorded here never schedule simulator events
// or draw randomness, so a traced run and an untraced run of one seed
// execute the same simulation.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "weakset.hpp"

namespace weakset::perfbench {

using WallClock = std::chrono::steady_clock;

/// Wall seconds since `start`.
inline double wall_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// Derives independent seeds for the parts of one workload from --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// -- spans ---------------------------------------------------------------

/// One benchmark-side span on the simulated clock.
struct SpanRecord {
  std::uint64_t op = 0;      ///< spans of one op share this id
  std::uint64_t parent = 0;  ///< enclosing span id (0 = root)
  const char* name = "";
  SimTime start;
  SimTime end;
  std::uint64_t arg = 0;  ///< refs in a fetch_many, 0 otherwise
};

/// In-memory span log. Disabled, begin() records nothing and returns 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its id (1-based), or 0 when disabled.
  std::uint64_t begin(const char* name, std::uint64_t op,
                      std::uint64_t parent, SimTime at,
                      std::uint64_t arg = 0);
  void end(std::uint64_t id, SimTime at) {
    if (id != 0) spans_[id - 1].end = at;
  }
  /// Fresh op id (counted whether or not spans are kept).
  std::uint64_t next_op() noexcept { return ++ops_; }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Writes the spans as Chrome trace-event JSON (simulated microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t ops_ = 0;
  std::vector<SpanRecord> spans_;
};

// -- samples and the op ledger -------------------------------------------

/// Exact simulated-time latency samples (no histogram quantisation).
class Samples {
 public:
  void add(Duration d) { ns_.push_back(d.count_nanos()); }
  [[nodiscard]] std::size_t count() const noexcept { return ns_.size(); }
  /// Nearest-rank percentile in milliseconds; 0 when empty.
  [[nodiscard]] double percentile_ms(double q) const;

 private:
  std::vector<std::int64_t> ns_;
};

/// Outcome tally of the ops a workload issued.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  /// Refused by the admission controller (kOverloaded): the designed
  /// answer to overload, not a malfunction.
  std::uint64_t overloaded = 0;
  /// Every other unsuccessful op.
  std::uint64_t failed = 0;

  void count(bool success, std::optional<FailureKind> why);
  void add(const Ledger& other);
};

/// Per-repetition state every component records into.
class Bench {
 public:
  Bench(Simulator& sim, Tracer& tracer) : sim(sim), tracer(tracer) {}
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  Simulator& sim;
  Tracer& tracer;

  Ledger ops;
  /// Latency samples are taken only while true (the measured phase).
  bool measuring = true;
  Samples writes;
  Samples nexts;
  Samples first_yields;

  // Correctness gate.
  std::uint64_t runs_checked = 0;
  std::uint64_t violations = 0;
  std::uint64_t invocations_recorded = 0;
  /// Fig 6 runs that check_fig6 flags under its pre/post witness rule but
  /// that hold when any state inside each invocation may be the witness.
  std::uint64_t interval_witness_runs = 0;
  double check_wall_s = 0.0;

  /// read_members calls beyond the first inside one next() (Fig 5/6
  /// re-reads after a blocked attempt).
  std::uint64_t blocked_retries = 0;

  std::vector<double> converge_ms;
  std::vector<double> recovery_ms;

  /// Acked writes missing at the end under asynchronous acks.
  std::uint64_t acked_writes_lost = 0;
  /// OR-Set adds acked without minting a dot (the host already held the
  /// element); the lost-write gate cannot vouch for those.
  std::uint64_t orset_noop_adds = 0;

  /// Counts a violation; the first few are printed to stderr.
  void violation(const std::string& what);
};

// -- timed calls -----------------------------------------------------------

/// SetView decorator over RepoSetView: a span around every read_members,
/// fetch and fetch_many, parented to the next() span the caller entered.
class TracedView final : public SetView {
 public:
  TracedView(Bench& bench, RepositoryClient& client, CollectionId id)
      : bench_(bench), inner_(client, id) {}

  /// Marks the start of one next() invocation.
  void enter_next(std::uint64_t op, std::uint64_t span) {
    op_ = op;
    next_span_ = span;
    reads_in_next_ = 0;
  }
  [[nodiscard]] std::uint64_t reads_in_next() const noexcept {
    return reads_in_next_;
  }
  /// Why the most recent failed read_members failed.
  [[nodiscard]] std::optional<FailureKind> last_read_failure() const {
    return last_read_failure_;
  }

  Task<Result<std::vector<ObjectRef>>> read_members() override;
  [[nodiscard]] MembershipReadMode last_read_mode() const override {
    return inner_.last_read_mode();
  }
  Task<Result<std::vector<ObjectRef>>> snapshot_atomic(
      std::function<void()> on_cut) override {
    return inner_.snapshot_atomic(std::move(on_cut));
  }
  Task<Result<void>> freeze() override { return inner_.freeze(); }
  Task<void> unfreeze() override { return inner_.unfreeze(); }
  Task<Result<void>> pin_grow_only() override {
    return inner_.pin_grow_only();
  }
  Task<void> unpin_grow_only() override { return inner_.unpin_grow_only(); }
  [[nodiscard]] bool is_reachable(ObjectRef ref) const override {
    return inner_.is_reachable(ref);
  }
  [[nodiscard]] std::optional<Duration> distance(
      ObjectRef ref) const override {
    return inner_.distance(ref);
  }
  Task<Result<VersionedValue>> fetch(ObjectRef ref) override;
  Task<std::vector<Result<VersionedValue>>> fetch_many(
      std::vector<ObjectRef> refs) override;
  [[nodiscard]] Simulator& sim() override { return inner_.sim(); }

 private:
  Bench& bench_;
  RepoSetView inner_;
  std::uint64_t op_ = 0;
  std::uint64_t next_span_ = 0;
  std::uint64_t reads_in_next_ = 0;
  std::optional<FailureKind> last_read_failure_;
};

/// One add (or remove), timed and counted into the ledger.
Task<Result<bool>> timed_write(Bench& bench, RepositoryClient& client,
                               CollectionId id, ObjectRef ref, bool add);

/// Iterator settings of run_iterate.
class IterateKnobs {
 public:
  IterateKnobs(std::size_t max_attempts, Duration retry_interval,
               std::size_t prefetch_window)
      : max_attempts(max_attempts),
        retry_interval(retry_interval),
        prefetch_window(prefetch_window) {}
  std::size_t max_attempts;  ///< Fig 6 retry budget per invocation
  Duration retry_interval;
  std::size_t prefetch_window;
};

/// Runs one elements iterator to its end with every invocation recorded
/// and the finished trace checked against the figure's predicate. With
/// `count_each_next` every next() is one ledger op; otherwise the whole
/// run is one op. `timeline` is required for Fig 6.
Task<void> run_iterate(Bench& bench, RepositoryClient& client,
                       CollectionId id, Semantics semantics,
                       const spec::MembershipTimeline* timeline,
                       bool count_each_next, const IterateKnobs& knobs);

// -- replicated write sets under a fault script ---------------------------

/// Home-primary collections, each a primary and 2 replicas, and OR-Set
/// collections, each on 3 hosts.
inline constexpr std::size_t kHomePrimarySets = 4;
inline constexpr std::size_t kOrSetSets = 4;

/// Defaults are the light set the population and dynamic_drain fault
/// tails run: enough writes to diverge during a partition.
struct ReplicatedConfig {
  std::size_t pool = 32;  ///< objects per collection (half seeded)
  Duration think = Duration::millis(50);
  /// Share of Fig 6 drains among the ops of home-primary writers.
  double iterate_share = 0.0;
};

/// Replicated collections with closed-loop writers: one writer per
/// (collection, writer node), each owning a disjoint slice of the pool so
/// it can predict the final membership of its own refs. Home-primary
/// collections have their primary on servers[0..2] and a replica on
/// servers[3]; every OR-Set collection has servers[3] among its hosts.
/// servers[3] is the node the fault script partitions and crashes, so no
/// write ever needs an unavailable primary.
class ReplicatedSets {
 public:
  ReplicatedSets(Bench& bench, Repository& repo,
                 const std::vector<NodeId>& servers,
                 const std::vector<NodeId>& writer_nodes,
                 const ReplicatedConfig& config, std::uint64_t seed);
  ReplicatedSets(const ReplicatedSets&) = delete;
  ReplicatedSets& operator=(const ReplicatedSets&) = delete;

  void start();
  void set_paused(bool paused) noexcept { paused_ = paused; }
  /// No writer has an op in flight.
  [[nodiscard]] bool idle() const noexcept { return busy_ == 0; }
  void stop() noexcept { stopping_ = true; }
  [[nodiscard]] bool stopped() const noexcept {
    return exited_ == writers_.size();
  }

  [[nodiscard]] std::size_t size() const noexcept { return sets_.size(); }
  /// Every host of collection `index` holds the same members (replica
  /// catch-up for home-primary, convergence for OR-Set).
  [[nodiscard]] bool set_agrees(std::size_t index) const;
  [[nodiscard]] bool hosts_agree() const;

  /// End-of-run gate: converged hosts, and no acknowledged write lost.
  void final_check();

 private:
  enum class RefState : std::uint8_t { kAbsent, kPresent, kUnknown };
  struct Set {
    CollectionId id;
    ReplicationMode mode = ReplicationMode::kHomePrimary;
    std::vector<NodeId> hosts;  ///< primary first
    /// Every host acks writes only once they are durable, so an acked
    /// write that an amnesia crash loses is a violation. With asynchronous
    /// acks such a loss is the mode's documented risk and is only counted.
    bool durable_acks = false;
    std::vector<ObjectRef> pool;
    std::unique_ptr<spec::TimelineProbe> probe;
  };
  struct Writer {
    std::size_t set = 0;
    NodeId node;
    std::vector<ObjectRef> refs;
    std::vector<RefState> state;
    std::uint64_t seed = 0;
  };

  [[nodiscard]] std::vector<ObjectRef> host_members(const Set& set,
                                                    NodeId host) const;
  static Task<void> writer_loop(ReplicatedSets& self, std::size_t index);

  Bench& bench_;
  Repository& repo_;
  ReplicatedConfig config_;
  std::vector<std::unique_ptr<Set>> sets_;
  std::vector<std::unique_ptr<Writer>> writers_;
  bool paused_ = false;
  bool stopping_ = false;
  std::size_t busy_ = 0;
  std::size_t exited_ = 0;
};

/// Drives the simulator through `rounds` rounds of: cut `victim` off
/// from the other servers, pause the writers, heal, and time until the
/// hosts of each collection agree (one converge_ms sample per collection);
/// then crash `victim` with amnesia, restart it, and time until it serves
/// again (recovery_ms). Writers keep running through the crash.
void run_fault_rounds(Bench& bench, Repository& repo,
                      const std::vector<NodeId>& servers, NodeId victim,
                      ReplicatedSets& sets, int rounds);

/// Stops the writers, waits for them, and runs the final gate.
void finish_sets(Bench& bench, ReplicatedSets& sets);

/// Steps the simulator in `step` increments until `done()` or `limit`
/// elapses; returns false on timeout.
template <typename Pred>
bool run_until_true(Simulator& sim, Pred done, Duration step,
                    Duration limit) {
  const SimTime deadline = sim.now() + limit;
  while (!done()) {
    if (sim.now() >= deadline) return false;
    sim.run_until(sim.now() + step);
  }
  return true;
}

// -- workloads -------------------------------------------------------------

/// One repetition's world, simulated on Bench::sim. The constructor is the
/// set-up (world build, seeding, build()); run() is the measured phase.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void run() = 0;
  /// Simulated length of the measured phase (goodput's denominator).
  [[nodiscard]] Duration main_phase() const noexcept { return main_phase_; }
  /// Ledger snapshot at the end of the measured phase.
  [[nodiscard]] const Ledger& main_ops() const noexcept { return main_ops_; }

 protected:
  void end_main_phase(Bench& bench, SimTime started);

 private:
  Duration main_phase_ = Duration::zero();
  Ledger main_ops_;
};

std::unique_ptr<Workload> make_population(Bench& bench, std::uint64_t seed);
std::unique_ptr<Workload> make_dynamic_drain(Bench& bench,
                                             std::uint64_t seed);
std::unique_ptr<Workload> make_durable_churn(Bench& bench,
                                             std::uint64_t seed);

/// Feeds the correctness gate hand-built Fig 6 traces, valid ones and ones
/// that break the predicate (a duplicate yield, a return while an unyielded
/// member stayed present, a yield of an element never present, a failure),
/// and prints its verdict on each. Returns the number it judged wrongly.
int gate_selfcheck();

/// Per-layer metrics read from the metrics registry after a run.
std::map<std::string, double> registry_layer_metrics(
    const obs::MetricsRegistry& registry, std::uint64_t ops,
    double* export_wall_s);

}  // namespace weakset::perfbench
