// weakset_perfbench: runs one workload for a wall-clock budget and prints
// its metrics as one JSON line (perfbench/run.py is the front end).
//
//   weakset_perfbench --workload population|dynamic_drain|durable_churn
//                     --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   weakset_perfbench --selfcheck     (checks the correctness gate itself)
//
// The workload is repeated from scratch: one untimed warm-up, then a fixed
// number of timed repetitions (see planned_reps). Every repetition of one
// seed runs the same simulation, so the simulated-time metrics must repeat
// exactly; set-up time and throughput are medians over the set-ups and the
// timed repetitions, both scaled to a reference host speed (see
// HostGauge). With --trace 1, every second timed repetition also records
// benchmark-side spans, and the output is the per-layer metrics plus the
// tracing overhead.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <queue>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "harness.hpp"
#include "util/alloc_hook.hpp"

namespace weakset::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

/// One repetition's measurements.
struct Rep {
  bool warmup = false;  ///< untimed: its wall metrics are left out
  bool traced = false;
  Ledger ops;
  std::uint64_t violations = 0;
  /// Simulated-time metrics and counts: identical in every repetition.
  std::map<std::string, double> sim;
  /// Deterministic per-layer metrics.
  std::map<std::string, double> layer;
  /// Host-clock per-layer metrics and span-derived ones.
  std::map<std::string, double> wall;
  std::map<std::string, std::size_t> samples;
};

constexpr std::size_t kSetupSamples = 64;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// A fixed piece of reference work, timed to tell how fast the host runs.
///
/// On a shared host, neighbours contending for the core, its caches and
/// memory slow the benchmark by up to 1.8x, in regimes lasting seconds to
/// minutes, longer than a run. The gauge is timed right before each
/// repetition's set-ups and right after the repetition; set-up times and
/// the repetition's throughput are scaled by how much slower than
/// kReferenceGaugeNs the gauge ran. Its work is the simulator's core loop
/// in miniature: an event heap with a hash table beside it. It is the same
/// on every run, whatever --seed, and shares no code with the library, so a
/// change to the library does not move it.
class HostGauge {
 public:
  /// Wall nanoseconds per step. A step pops the top of a heap of 4096
  /// events and pushes it back with a later time, and inserts, bumps or
  /// erases one of 16384 keys.
  double ns_per_step() {
    constexpr std::uint32_t kSteps = 400'000;
    const auto started = WallClock::now();
    std::priority_queue<std::pair<std::uint64_t, std::uint32_t>> heap;
    std::unordered_map<std::uint64_t, std::uint32_t> table;
    std::uint64_t x = 88172645463325252ULL;  // xorshift64
    const auto next_random = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (std::uint32_t i = 0; i < 4096; ++i) {
      heap.emplace(next_random() >> 20, i);
    }
    for (std::uint32_t i = 0; i < kSteps; ++i) {
      const auto top = heap.top();
      heap.pop();
      heap.emplace(top.first + (next_random() >> 40), top.second);
      const std::uint64_t key = next_random() & 0x3fff;
      const auto it = table.find(key);
      if (it == table.end()) {
        table.emplace(key, i);
      } else if (i % 4 == 0) {
        table.erase(it);
      } else {
        it->second += top.second;
      }
    }
    sink_ = sink_ + table.size();  // keeps the work from being optimised away
    return wall_since(started) * 1e9 / kSteps;
  }

 private:
  volatile std::size_t sink_ = 0;
};

/// HostGauge::ns_per_step() on a quiet 4-vCPU Xeon KVM host (about the
/// 10th percentile of its timings there): setup_s and ops_per_wall_s are
/// scaled to this speed.
constexpr double kReferenceGaugeNs = 70.0;

/// Keeps the process on the vCPU it started on: at any moment the host's
/// vCPUs differ in speed, and a repetition that migrated would run on
/// another vCPU than the gauge timed around it.
void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

/// Wall seconds of one repetition on an idle 4-vCPU x86-64 host.
double nominal_rep_seconds(const std::string& workload) {
  if (workload == "population") return 8.0;
  if (workload == "dynamic_drain") return 0.8;
  return 2.0;
}

/// Repetitions of one run: as many as fit in --seconds at the nominal
/// speed. The count depends on the arguments only, so a faster build runs
/// as many repetitions as a slower one, not more.
std::size_t planned_reps(const Args& args) {
  const double fit =
      std::ceil(args.seconds / nominal_rep_seconds(args.workload));
  return std::max<std::size_t>(args.trace ? 2 : 1,
                               static_cast<std::size_t>(fit));
}

std::unique_ptr<Workload> make(const std::string& name, Bench& bench,
                               std::uint64_t seed) {
  if (name == "population") return make_population(bench, seed);
  if (name == "dynamic_drain") return make_dynamic_drain(bench, seed);
  if (name == "durable_churn") return make_durable_churn(bench, seed);
  return nullptr;
}

/// Span-derived metrics: self time of next() (its span minus the part its
/// read_members/fetch/fetch_many children cover) and client call shapes.
void span_metrics(const Tracer& tracer, std::map<std::string, double>& out) {
  const std::vector<SpanRecord>& spans = tracer.spans();
  std::vector<std::vector<std::pair<SimTime, SimTime>>> children(
      spans.size());
  Samples read_all;
  Samples fetch_many;
  double batch_refs = 0.0;
  double batches = 0.0;
  for (const SpanRecord& span : spans) {
    const std::string_view name{span.name};
    if (span.parent != 0 &&
        (name == "read_members" || name == "fetch" || name == "fetch_many")) {
      children[span.parent - 1].emplace_back(span.start, span.end);
    }
    if (name == "read_members") read_all.add(span.end - span.start);
    if (name == "fetch_many") {
      fetch_many.add(span.end - span.start);
      batch_refs += static_cast<double>(span.arg);
      batches += 1.0;
    }
  }
  double self_ns = 0.0;
  double nexts = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view{spans[i].name} != "next") continue;
    const SimTime start = spans[i].start;
    const SimTime end = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    SimTime cursor = start;
    for (const auto& [kid_start, kid_end] : kids) {
      const SimTime from = std::max(kid_start, cursor);
      const SimTime to = std::min(kid_end, end);
      if (to > from) {
        covered += (to - from).count_nanos();
        cursor = to;
      }
    }
    self_ns += static_cast<double>((end - start).count_nanos() - covered);
    nexts += 1.0;
  }
  out["core.next_self_ms"] = ratio(self_ns, nexts) / 1e6;
  out["client.read_all_p99_ms"] = read_all.percentile_ms(0.99);
  out["client.fetch_many_p99_ms"] = fetch_many.percentile_ms(0.99);
  out["client.batch_size"] = ratio(batch_refs, batches);
  out["trace.spans"] = static_cast<double>(spans.size());
}

Rep run_rep(const Args& args, bool traced) {
  obs::global().clear();
  Rep rep;
  rep.traced = traced;
  Simulator sim;
  Tracer tracer{traced};
  Bench bench{sim, tracer};

  std::unique_ptr<Workload> workload = make(args.workload, bench, args.seed);

  const std::uint64_t allocs_before = alloc_hook::news();
  const std::uint64_t events_before = sim.events_processed();
  const auto run_started = WallClock::now();
  workload->run();
  const double run_wall_s = wall_since(run_started);
  const auto allocs =
      static_cast<double>(alloc_hook::news() - allocs_before);
  const auto events =
      static_cast<double>(sim.events_processed() - events_before);

  rep.ops = bench.ops;
  rep.violations = bench.violations;
  const auto ops = static_cast<double>(bench.ops.attempted);
  const Ledger& main_ops = workload->main_ops();
  const double main_s =
      static_cast<double>(workload->main_phase().count_nanos()) / 1e9;

  std::map<std::string, double>& s = rep.sim;
  s["write_p50_ms"] = bench.writes.percentile_ms(0.50);
  s["write_p99_ms"] = bench.writes.percentile_ms(0.99);
  s["next_p50_ms"] = bench.nexts.percentile_ms(0.50);
  s["next_p99_ms"] = bench.nexts.percentile_ms(0.99);
  s["first_yield_p50_ms"] = bench.first_yields.percentile_ms(0.50);
  s["goodput_per_s"] = ratio(static_cast<double>(main_ops.ok), main_s);
  s["ok_frac"] = ratio(static_cast<double>(main_ops.ok),
                       static_cast<double>(main_ops.attempted));
  s["converge_ms"] = median(bench.converge_ms);
  s["recovery_ms"] = median(bench.recovery_ms);
  s["count.ops_attempted"] = ops;
  s["count.ops_ok"] = static_cast<double>(bench.ops.ok);
  s["count.ops_overloaded"] = static_cast<double>(bench.ops.overloaded);
  s["count.ops_failed"] = static_cast<double>(bench.ops.failed);
  s["count.events"] = events;
  s["count.spec_runs"] = static_cast<double>(bench.runs_checked);
  s["count.spec_violations"] = static_cast<double>(bench.violations);
  rep.samples = {{"write", bench.writes.count()},
                 {"next", bench.nexts.count()},
                 {"first_yield", bench.first_yields.count()},
                 {"converge", bench.converge_ms.size()},
                 {"recovery", bench.recovery_ms.size()}};

  double export_wall_s = 0.0;
  rep.layer = registry_layer_metrics(obs::global(), bench.ops.attempted,
                                     &export_wall_s);
  rep.layer["sim.events_per_op"] = ratio(events, ops);
  rep.layer["core.blocked_retries"] =
      static_cast<double>(bench.blocked_retries);
  rep.layer["wal.acked_writes_lost"] =
      static_cast<double>(bench.acked_writes_lost);
  rep.layer["crdt.noop_adds"] = static_cast<double>(bench.orset_noop_adds);
  rep.layer["spec.interval_witness_runs"] =
      static_cast<double>(bench.interval_witness_runs);
  rep.layer["spec.trace_events_per_run"] =
      ratio(static_cast<double>(bench.invocations_recorded),
            static_cast<double>(bench.runs_checked));

  rep.wall["ops_per_wall_s"] = ratio(ops, run_wall_s);
  rep.wall["sim.wall_ns_per_event"] = ratio(run_wall_s * 1e9, events);
  rep.wall["host.allocs_per_op"] = ratio(allocs, ops);
  rep.wall["spec.check_wall_ms"] =
      ratio(bench.check_wall_s * 1e3, static_cast<double>(bench.runs_checked));
  rep.wall["obs.export_wall_ms"] = export_wall_s * 1e3;
  if (traced) {
    span_metrics(tracer, rep.wall);
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/trace-" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".json";
      if (!tracer.write_chrome_json(path)) {
        std::cerr << "cannot write " << path << "\n";
      }
    }
  }
  workload.reset();  // teardown, untimed
  return rep;
}

double setup_only(const Args& args) {
  obs::global().clear();
  Simulator sim;
  Tracer tracer{false};
  Bench bench{sim, tracer};
  const auto started = WallClock::now();
  std::unique_ptr<Workload> workload = make(args.workload, bench, args.seed);
  const double elapsed = wall_since(started);
  workload.reset();
  return elapsed;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag{argv[i]};
    const std::string value{argv[i + 1]};
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty();
}

std::string json_number(double value) {
  std::ostringstream out;
  out << std::setprecision(std::numeric_limits<double>::max_digits10)
      << value;
  return out.str();
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  return out + "]";
}

int run_main(int argc, char** argv) {
  if (argc == 2 && std::string_view{argv[1]} == "--selfcheck") {
    return gate_selfcheck() == 0 ? 0 : 1;
  }
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: weakset_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n";
    return 2;
  }
  if (args.workload != "population" && args.workload != "dynamic_drain" &&
      args.workload != "durable_churn") {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }

  pin_to_current_cpu();
  // One untimed warm-up repetition, then the timed ones. On a host slowed
  // far below the nominal speed the run stops early, so that it ends well
  // inside the caller's time limit.
  const std::size_t planned = 1 + planned_reps(args);
  // Set-ups alone (built, never run), an equal share before each
  // repetition: the host's speed drifts over seconds, and set-ups made in
  // one burst would all see the same moment of it.
  const std::size_t setups_per_rep = (kSetupSamples + planned - 1) / planned;
  std::vector<double> setups;
  const std::size_t at_least = args.trace ? 3 : 2;
  const double cap_s = 1.5 * args.seconds;
  std::vector<Rep> reps;
  double peak_rss_mb = 0.0;
  HostGauge gauge;
  /// HostGauge::ns_per_step() before each repetition's set-ups and after
  /// the last repetition: repetition i runs between gauge_ns[i] and
  /// gauge_ns[i + 1].
  std::vector<double> gauge_ns;
  /// Set-up wall times as measured, before scaling.
  std::vector<double> host_setups;
  const auto started = WallClock::now();
  while (reps.size() < planned &&
         (reps.size() < at_least || wall_since(started) < cap_s)) {
    gauge_ns.push_back(gauge.ns_per_step());
    for (std::size_t i = 0; i < setups_per_rep; ++i) {
      host_setups.push_back(setup_only(args));
      setups.push_back(host_setups.back() * kReferenceGaugeNs /
                       gauge_ns.back());
    }
    const bool warmup = reps.empty();
    const bool traced = args.trace && !warmup && reps.size() % 2 == 0;
    reps.push_back(run_rep(args, traced));
    reps.back().warmup = warmup;
    if (warmup) {
      // Peak RSS through one repetition: later repetitions reuse freed
      // memory unevenly, so the process-lifetime peak would depend on the
      // repetition count.
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }
  gauge_ns.push_back(gauge.ns_per_step());
  std::vector<double> host_ops_per_wall_s;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    double& rate = reps[i].wall.at("ops_per_wall_s");
    host_ops_per_wall_s.push_back(rate);
    rate *= (gauge_ns[i] + gauge_ns[i + 1]) / 2.0 / kReferenceGaugeNs;
  }

  // Correctness: no violation, and every repetition (traced or not) ran
  // the same simulation.
  bool deterministic = true;
  std::uint64_t violations = 0;
  Ledger total;
  for (const Rep& rep : reps) {
    violations += rep.violations;
    total.add(rep.ops);
    if (rep.sim != reps.front().sim || rep.layer != reps.front().layer) {
      deterministic = false;
    }
  }
  if (!deterministic) {
    std::cerr << "nondeterminism: repetitions of one seed disagree on "
                 "simulated-time metrics\n";
  }
  const Rep& first = reps.front();
  const bool enough_samples = first.samples.at("write") >= 1000 &&
                              first.samples.at("next") >= 1000;
  if (!enough_samples) {
    std::cerr << "too few samples for a p99 (need 1000 writes and 1000 "
                 "next() calls)\n";
  }

  const auto wall_median = [&reps](const char* name, bool traced) {
    std::vector<double> values;
    for (const Rep& rep : reps) {
      if (rep.warmup || rep.traced != traced) continue;
      const auto it = rep.wall.find(name);
      if (it != rep.wall.end()) values.push_back(it->second);
    }
    return median(values);
  };
  std::map<std::string, double> metrics;
  if (!args.trace) {
    for (const char* name :
         {"write_p50_ms", "write_p99_ms", "next_p50_ms", "next_p99_ms",
          "first_yield_p50_ms", "goodput_per_s", "ok_frac", "converge_ms",
          "recovery_ms"}) {
      metrics[name] = first.sim.at(name);
    }
    metrics["setup_s"] = median(setups);
    metrics["ops_per_wall_s"] =
        wall_median("ops_per_wall_s", /*traced=*/false);
    metrics["peak_rss_mb"] = peak_rss_mb;
  } else {
    metrics = first.layer;
    for (const char* name : {"sim.wall_ns_per_event", "host.allocs_per_op",
                             "spec.check_wall_ms", "obs.export_wall_ms"}) {
      metrics[name] = wall_median(name, /*traced=*/false);
    }
    for (const char* name :
         {"core.next_self_ms", "client.read_all_p99_ms",
          "client.fetch_many_p99_ms", "client.batch_size", "trace.spans"}) {
      metrics[name] = wall_median(name, /*traced=*/true);
    }
    const double untraced = wall_median("ops_per_wall_s", /*traced=*/false);
    const double traced = wall_median("ops_per_wall_s", /*traced=*/true);
    metrics["trace.ops_per_wall_s_delta"] = traced - untraced;
    metrics["trace.overhead_frac"] = ratio(untraced - traced, untraced);
    metrics["host.gauge_ns"] = median(gauge_ns);
  }

#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const bool correct = violations == 0 && deterministic && enough_samples;
  std::ostringstream out;
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"reps\": " << reps.size()
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"deterministic\": " << (deterministic ? "true" : "false")
      << ", \"optimized\": " << (optimized ? "true" : "false")
      << ", \"spec_violations\": " << violations
      << ", \"spec_runs\": " << json_number(first.sim.at("count.spec_runs"))
      << ", \"attempted\": " << total.attempted
      << ", \"failed\": " << total.failed
      << ", \"overloaded\": " << total.overloaded
      << ", \"host_setup_s\": " << json_number(median(host_setups))
      << ", \"rep_host_ops_per_wall_s\": " << json_array(host_ops_per_wall_s)
      << ", \"gauge_ns\": " << json_array(gauge_ns) << ", \"samples\": {";
  bool comma = false;
  for (const auto& [name, count] : first.samples) {
    out << (comma ? ", " : "") << "\"" << name << "\": " << count;
    comma = true;
  }
  out << "}, \"metrics\": {";
  comma = false;
  for (const auto& [name, value] : metrics) {
    out << (comma ? ", " : "") << "\"" << name
        << "\": " << json_number(value);
    comma = true;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace weakset::perfbench

int main(int argc, char** argv) {
  return weakset::perfbench::run_main(argc, argv);
}
