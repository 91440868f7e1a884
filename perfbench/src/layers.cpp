// Per-layer counters read back from the metrics registry after a run. The
// registry has no name enumeration API, so names come from its own JSON
// export (one entry per line) and values from the typed accessors.

#include <sstream>
#include <string_view>

#include "harness.hpp"

namespace weakset::perfbench {
namespace {

struct ExportedNames {
  std::vector<std::string> counters;
  std::vector<std::string> histograms;
};

/// Names of the "counters" and "histograms" objects of to_json().
ExportedNames scan_export(const std::string& json) {
  ExportedNames names;
  std::vector<std::string>* section = nullptr;
  std::istringstream lines{json};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  \"counters\"", 0) == 0) {
      section = &names.counters;
    } else if (line.rfind("  \"histograms\"", 0) == 0) {
      section = &names.histograms;
    } else if (line.rfind("  \"", 0) == 0 || line.rfind("  }", 0) == 0) {
      section = nullptr;
    } else if (section != nullptr && line.rfind("    \"", 0) == 0) {
      const std::size_t end = line.find('"', 5);
      if (end != std::string::npos) section->push_back(line.substr(5, end - 5));
    }
  }
  return names;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::map<std::string, double> registry_layer_metrics(
    const obs::MetricsRegistry& reg, std::uint64_t ops,
    double* export_wall_s) {
  const auto exported = WallClock::now();
  const std::string json = reg.to_json();
  *export_wall_s = wall_since(exported);
  const ExportedNames names = scan_export(json);

  const auto c = [&reg](std::string_view name) {
    return static_cast<double>(reg.counter(name));
  };
  const auto p99_ms = [&reg](std::string_view name) {
    const obs::Histogram* h = reg.histogram(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->percentile(0.99)) / 1e6;
  };
  /// Sum of every counter named iter.<figure>.<suffix>.
  const auto iter_sum = [&](std::string_view suffix) {
    double total = 0.0;
    for (const std::string& name : names.counters) {
      if (name.rfind("iter.", 0) == 0 && ends_with(name, suffix)) {
        total += c(name);
      }
    }
    return total;
  };

  std::map<std::string, double> m;
  const auto per_op = static_cast<double>(ops);

  // net: every rpc.<method>.latency_ns histogram folded into one.
  obs::Histogram rpc;
  double hist_records = 0.0;
  for (const std::string& name : names.histograms) {
    const obs::Histogram* h = reg.histogram(name);
    hist_records += static_cast<double>(h->count());
    if (name.rfind("rpc.", 0) == 0 && ends_with(name, ".latency_ns")) {
      rpc.merge(*h);
    }
  }
  m["net.rpcs_per_op"] = ratio(c("rpc.calls"), per_op);
  m["net.rpc_p99_ms"] = static_cast<double>(rpc.percentile(0.99)) / 1e6;
  m["net.timeouts"] = c("rpc.timeouts");
  m["net.msgs_dropped"] = c("rpc.messages_dropped");

  // store/admission
  m["admission.wait_p99_ms"] = p99_ms("store.admission.wait");
  m["admission.shed_frac"] =
      ratio(c("store.admission.shed"), c("store.admission.offered"));
  const obs::Histogram* depth = reg.histogram("store.admission.queue_depth");
  m["admission.max_queue_depth"] =
      depth == nullptr ? 0.0 : static_cast<double>(depth->max());

  // store/client
  const double full = c("store.client.fragment_reads_full");
  const double delta = c("store.client.fragment_reads_delta");
  m["client.delta_frac"] = ratio(delta, full + delta);
  m["client.entries_per_read"] =
      ratio(c("store.client.members_shipped") + c("store.client.ops_shipped"),
            full + delta);
  m["client.write_failovers"] = c("store.client.orset_write_failovers");

  // core
  m["core.prefetch_hit_frac"] =
      ratio(iter_sum(".prefetch_hits"), iter_sum(".fetch_attempts"));
  m["core.prefetch_invalidated_frac"] =
      ratio(iter_sum(".prefetch_invalidated"),
            iter_sum(".prefetch_batched_objects"));

  // store/server
  m["server.delta_replies"] = c("store.server.delta_reads");
  m["server.snapshot_replies"] = c("store.server.snapshot_reads");
  m["server.resyncs"] = c("store.server.delta_resyncs");
  m["server.antientropy_pulls"] =
      c("store.replica.pull_rounds") + c("store.orset.pull_rounds");
  m["server.merge_ops"] =
      c("store.orset.pull_ops_applied") + c("store.orset.push_ops_applied");
  m["server.snapshot_joins"] =
      c("store.orset.snapshot_joins") + c("store.replica.snapshot_installs");

  // wal (base: appended records)
  m["wal.fsyncs_per_write"] = ratio(c("wal.fsyncs"), c("wal.appends"));
  const obs::Histogram* append_bytes = reg.histogram("wal.append_bytes");
  m["wal.bytes_per_write"] =
      append_bytes == nullptr
          ? 0.0
          : ratio(static_cast<double>(append_bytes->sum()),
                  static_cast<double>(append_bytes->count()));
  m["wal.records_replayed"] = c("wal.ops_replayed");

  // block
  const double hits = c("store.block.cache_hits");
  m["block.cache_hit_frac"] =
      ratio(hits, hits + c("store.block.cache_misses"));
  m["block.dirty_writebacks"] = c("store.block.dirty_writebacks");
  m["block.checkpoint_blocks"] = c("store.block.checkpoint_blocks_written");
  m["block.recovery_read_kb"] = c("store.block.recovery_read_bytes") / 1024.0;

  // placement
  m["placement.moves_committed"] = c("placement.migrations_committed");
  m["placement.wrong_epoch_heals"] = c("store.client.wrong_epoch_retries");

  // obs
  m["obs.metric_names"] =
      static_cast<double>(names.counters.size() + names.histograms.size());
  m["obs.hist_records_per_op"] = ratio(hist_records, per_op);
  m["obs.spans_dropped_frac"] =
      ratio(static_cast<double>(reg.spans_dropped()),
            static_cast<double>(reg.spans_started()));
  return m;
}

}  // namespace weakset::perfbench
