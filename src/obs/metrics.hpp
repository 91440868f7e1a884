#pragma once

// Simulated-time observability: counters, latency histograms, RPC spans.
//
// Every module of the distributed substrate records what it does into a
// MetricsRegistry — monotonic counters, fixed log-bucket histograms of
// simulated-time latencies (or plain values), and lightweight spans (start
// and end *simulated* time, peer, operation, outcome). Because the whole
// system runs under the virtual clock (DESIGN.md section 3.3), a registry is
// a pure function of the run's seeds: two runs of the same seed produce
// byte-identical to_json() exports, which is what lets CI diff telemetry
// snapshots with tight tolerances (scripts/metrics_diff.py).
//
// Wiring: components accept a `MetricsRegistry*` through their options
// structs; nullptr (the default everywhere) means "record into the
// process-global registry" (obs::global()), so benches and tests get a full
// telemetry snapshot with zero wiring, while unit tests that want isolation
// pass their own registry. Recording never consumes randomness and never
// schedules simulator events, so instrumented and uninstrumented runs have
// identical timing and interleaving.
//
// Names are interned (DESIGN.md decision 10): a CounterId / HistogramId is a
// dense index into one process-wide name table, minted once per name, and a
// registry keeps its values in vectors indexed by it. Hot recorders hold the
// ids of their names in a per-module struct built once per process, so
// recording is an index, not a string-keyed lookup. The string overloads
// (add(name), counter(name), histogram(name), ...) stay for readers and cold
// paths; they resolve the name through the same table. The process is
// single-threaded (the simulator runs one event queue), and so is the table.

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/time.hpp"

namespace weakset::obs {

/// Fixed log-bucket histogram over non-negative int64 values (latencies are
/// recorded as nanoseconds of simulated time). Values below 16 get exact
/// buckets; above that, each power-of-two range is split into 16 linear
/// sub-buckets, bounding the relative quantisation error at 1/16 (6.25%).
/// All state is integral, so merging and exporting are exact.
class Histogram {
 public:
  /// Records one value (negative values clamp to 0).
  void record(std::int64_t value);
  void record(Duration d) { record(d.count_nanos()); }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::int64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::int64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::int64_t max() const noexcept { return max_; }

  /// Value at quantile `q` in [0, 1]: the upper bound of the bucket holding
  /// the rank-ceil(q*count) recording, clamped to the exact max. 0 if empty.
  [[nodiscard]] std::int64_t percentile(double q) const;

  /// Bucket-wise merge (exact).
  void merge(const Histogram& other);

  /// Non-empty buckets as (lower bound, count), ascending.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint64_t>>
  nonzero_buckets() const;

  // Bucket arithmetic, exposed for the unit tests.
  [[nodiscard]] static std::size_t bucket_index(std::int64_t value) noexcept;
  [[nodiscard]] static std::int64_t bucket_lower(std::size_t index) noexcept;
  [[nodiscard]] static std::int64_t bucket_upper(std::size_t index) noexcept;

 private:
  std::vector<std::uint64_t> buckets_;  // grown on demand
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = 0;
};

/// Dense handle of an interned counter name. Constructing one interns the
/// name into the process-wide table (idempotent: one name, one id), so a
/// handle is valid in every registry and across MetricsRegistry::clear().
/// Build it once per process (a module's static struct of ids), not per
/// object or per call.
class CounterId {
 public:
  explicit CounterId(std::string_view name);

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

 private:
  std::uint32_t index_;
};

/// Dense handle of an interned histogram name; same contract as CounterId
/// (histogram names are a table of their own).
class HistogramId {
 public:
  explicit HistogramId(std::string_view name);

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

 private:
  std::uint32_t index_;
};

/// One completed (or still open) operation span on the simulated clock.
struct Span {
  std::uint64_t id = 0;      ///< 1-based; 0 is "no span" (see parent)
  std::uint64_t parent = 0;  ///< enclosing span id, 0 = root
  std::string op;            ///< operation name (e.g. the RPC method)
  std::string peer;          ///< remote party (topology node name)
  SimTime start;
  SimTime end;
  std::string outcome;  ///< "ok", "failed", "timeout", "dropped", ...
};

/// The metrics sink: named counters, named histograms, and a bounded span
/// log. Deterministic by construction — exports list names in lexicographic
/// order, span ids in allocation order, and every exported quantity is
/// integral.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // -- counters --------------------------------------------------------------

  /// Adds `delta` to the counter (creating it at 0: even add(id, 0) makes
  /// the counter part of the export).
  void add(CounterId id, std::uint64_t delta = 1) {
    touch_counter(id.index()).value += delta;
  }
  void add(std::string_view name, std::uint64_t delta = 1) {
    add(CounterId{name}, delta);
  }

  /// Current counter value (0 if never touched).
  [[nodiscard]] std::uint64_t counter(CounterId id) const {
    return id.index() < counters_.size() ? counters_[id.index()].value : 0;
  }
  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    return counter(CounterId{name});
  }

  // -- histograms ------------------------------------------------------------

  /// Records a simulated-time latency, in nanoseconds, into the histogram.
  /// Convention: duration-valued histogram names end in "_ns".
  void record(HistogramId id, Duration d) { record_value(id, d.count_nanos()); }
  void record(std::string_view name, Duration d) {
    record_value(HistogramId{name}, d.count_nanos());
  }

  /// Records a plain value (queue depth, batch size, ...).
  void record_value(HistogramId id, std::int64_t value) {
    touch_histogram(id.index()).histogram.record(value);
  }
  void record_value(std::string_view name, std::int64_t value) {
    record_value(HistogramId{name}, value);
  }

  /// The histogram, or nullptr if nothing was recorded into it.
  [[nodiscard]] const Histogram* histogram(HistogramId id) const {
    if (id.index() >= histograms_.size()) return nullptr;
    const HistogramSlot& slot = histograms_[id.index()];
    return slot.touched ? &slot.histogram : nullptr;
  }
  [[nodiscard]] const Histogram* histogram(std::string_view name) const {
    return histogram(HistogramId{name});
  }

  // -- spans -----------------------------------------------------------------

  /// Opens a span at simulated time `at`; returns its id (ids are allocated
  /// even past the retention cap, so capping never perturbs determinism).
  /// `op` and `peer` are copied while the retained log has room; a span
  /// opened once it is full can never be retained (raising the cap later
  /// does not revive it), so it is tracked by id alone. Steady-state opens
  /// reuse recycled span storage, so they allocate nothing once warm.
  std::uint64_t begin_span(std::string_view op, std::string_view peer,
                           SimTime at, std::uint64_t parent = 0);

  /// Closes span `id` with `outcome` (an unknown or already closed id is
  /// ignored). The first span_cap() completed spans are retained for
  /// export; later ones only count into spans_dropped.
  void end_span(std::uint64_t id, SimTime at, std::string_view outcome);

  [[nodiscard]] std::uint64_t spans_started() const noexcept {
    return spans_started_;
  }
  [[nodiscard]] std::uint64_t spans_finished() const noexcept {
    return spans_finished_;
  }
  [[nodiscard]] std::uint64_t spans_dropped() const noexcept {
    return spans_dropped_;
  }
  /// The first span_cap() completed spans, in completion order.
  [[nodiscard]] const std::vector<Span>& retained_spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::size_t span_cap() const noexcept { return span_cap_; }
  void set_span_cap(std::size_t cap) noexcept { span_cap_ = cap; }

  // -- aggregation & export --------------------------------------------------

  /// Folds `other` into this registry: counters and histograms add
  /// bucket-wise, retained spans append up to the cap (the rest count as
  /// dropped). `other` is unchanged.
  void merge(const MetricsRegistry& other);

  /// Deterministic JSON snapshot: same recordings → byte-identical string.
  /// Everything is integral; keys are sorted; spans are in allocation order.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path` (plus a trailing newline). Returns false on
  /// I/O failure.
  bool write_json_file(const std::string& path) const;

  /// Drops all recorded state (counters, histograms, spans). Interned ids
  /// stay valid.
  void clear();

 private:
  struct CounterSlot {
    std::uint64_t value = 0;
    bool touched = false;  ///< recorded since the last clear()
  };
  struct HistogramSlot {
    Histogram histogram;
    bool touched = false;  ///< recorded since the last clear()
  };
  struct OpenSpan {
    Span span;
    bool retainable = false;  ///< opened while the retained log had room
  };
  using OpenSpanMap = std::unordered_map<std::uint64_t, OpenSpan>;

  /// The slot at `index`, grown into and marked touched if need be.
  CounterSlot& touch_counter(std::uint32_t index) {
    if (index >= counters_.size()) grow_counters(index);
    CounterSlot& slot = counters_[index];
    if (!slot.touched) {
      slot.touched = true;
      touched_counters_.push_back(index);
    }
    return slot;
  }
  HistogramSlot& touch_histogram(std::uint32_t index) {
    if (index >= histograms_.size()) grow_histograms(index);
    HistogramSlot& slot = histograms_[index];
    if (!slot.touched) {
      slot.touched = true;
      touched_histograms_.push_back(index);
    }
    return slot;
  }
  void grow_counters(std::uint32_t index);
  void grow_histograms(std::uint32_t index);

  // Indexed by CounterId / HistogramId; the touched lists hold the ids
  // recorded since the last clear(), in first-touch order.
  std::vector<CounterSlot> counters_;
  std::vector<std::uint32_t> touched_counters_;
  std::vector<HistogramSlot> histograms_;
  std::vector<std::uint32_t> touched_histograms_;
  std::vector<Span> spans_;     // first span_cap_ completed
  OpenSpanMap open_spans_;      // in-flight, keyed by id
  /// Recycled open_spans_ nodes: a span open/close in the steady state reuses
  /// a parked node (and its Span's string capacity) instead of allocating.
  std::vector<OpenSpanMap::node_type> span_node_stash_;
  std::uint64_t next_span_id_ = 1;
  std::uint64_t spans_started_ = 0;
  std::uint64_t spans_finished_ = 0;
  std::uint64_t spans_dropped_ = 0;
  std::size_t span_cap_ = kDefaultSpanCap;

  static constexpr std::size_t kDefaultSpanCap = 256;
};

/// The process-global registry: where every component records unless its
/// options carry an explicit registry. One per process, created on first use.
MetricsRegistry& global();

/// Resolves an options-struct pointer: `chosen` if non-null, else global().
inline MetricsRegistry& sink(MetricsRegistry* chosen) {
  return chosen != nullptr ? *chosen : global();
}

/// Strips a `--metrics-out=FILE` argument from argv (if present) and returns
/// FILE. Shared by the bench main (bench_common.hpp) and the conformance and
/// chaos test mains, so any run of those binaries can export its telemetry.
std::optional<std::string> extract_metrics_out(int& argc, char** argv);

}  // namespace weakset::obs
