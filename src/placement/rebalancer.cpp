#include "placement/rebalancer.hpp"

#include <algorithm>
#include <limits>
#include <string_view>
#include <utility>

namespace weakset::placement {
namespace {

/// This module's telemetry names, interned once per process.
struct RebalancerMetrics {
  obs::CounterId rebalance_commits{"placement.rebalance_commits"};
  obs::CounterId rebalance_failures{"placement.rebalance_failures"};
  obs::CounterId rebalance_requests{"placement.rebalance_requests"};
  obs::CounterId rebalance_scans{"placement.rebalance_scans"};
};
const RebalancerMetrics kMetrics{};

/// Concurrent-migration budget: scans are skipped while this many moves are
/// in flight.
constexpr std::size_t kMaxConcurrent = 1;
/// kLeastLoaded trigger: the hottest node's window demand must be at least
/// this multiple of the coldest candidate's (floored at 1).
constexpr std::uint64_t kImbalanceRatio = 2;
/// kLocality trigger: the read-weighted distance must improve by at least
/// this percent.
constexpr std::uint64_t kMinImprovementPct = 25;
/// mig.execute can stream a large fragment; give it a generous deadline.
constexpr Duration kMigrateTimeout = Duration::seconds(30);

}  // namespace

std::optional<RebalancePolicy> parse_policy(std::string_view name) {
  if (name == "none") return RebalancePolicy::kNone;
  if (name == "least-loaded") return RebalancePolicy::kLeastLoaded;
  if (name == "locality") return RebalancePolicy::kLocality;
  return std::nullopt;
}

const char* policy_name(RebalancePolicy policy) {
  switch (policy) {
    case RebalancePolicy::kNone: return "none";
    case RebalancePolicy::kLeastLoaded: return "least-loaded";
    case RebalancePolicy::kLocality: return "locality";
  }
  return "none";
}

Rebalancer::Rebalancer(Repository& repo, NodeId node,
                       RebalancerOptions options)
    : repo_(repo),
      node_(node),
      options_(options),
      metrics_(obs::sink(options.metrics)) {}

void Rebalancer::manage(CollectionId id) {
  managed_.push_back(id);
  // Deterministic scan order regardless of manage() call order.
  std::sort(managed_.begin(), managed_.end(),
            [](CollectionId a, CollectionId b) { return a.raw() < b.raw(); });
}

void Rebalancer::start() {
  if (options_.policy == RebalancePolicy::kNone) return;
  repo_.sim().spawn(run_loop());
}

Task<void> Rebalancer::run_loop() {
  while (!stopping_) {
    co_await repo_.sim().delay(options_.interval);
    if (stopping_) co_return;
    metrics_.add(kMetrics.rebalance_scans);
    const std::vector<FragmentView> rows = scan();
    if (in_flight_ >= kMaxConcurrent) continue;
    const std::optional<Move> move = decide(rows);
    if (!move) continue;
    ++in_flight_;
    ++requested_;
    metrics_.add(kMetrics.rebalance_requests);
    repo_.sim().spawn(execute(*move));
  }
}

std::vector<Rebalancer::FragmentView> Rebalancer::scan() {
  std::vector<FragmentView> rows;
  for (const CollectionId id : managed_) {
    const CollectionMeta& meta = repo_.meta(id);
    for (std::size_t f = 0; f < meta.fragment_count(); ++f) {
      const FragmentMeta& frag = meta.fragments()[f];
      StoreServer* server = repo_.server_at(frag.primary());
      if (server == nullptr) continue;
      const StoreServer::FragmentLoad load = server->fragment_load(id);
      const std::uint64_t total = load.reads + load.ops;
      const auto key = std::pair{id.raw(), static_cast<std::uint64_t>(f)};
      const std::uint64_t prev =
          std::exchange(last_total_[key], total);
      auto& prev_by_node = last_by_node_[key];
      FragmentView row;
      row.id = id;
      row.fragment = f;
      row.home = frag.primary();
      row.movable = frag.replicas().empty() && server->serving() &&
                    server->hosts_primary(id) &&
                    !server->migration_blocked(id);
      // Counters reset when a fragment rehomes or its node loses memory;
      // treat a regression as a fresh window.
      row.window = total >= prev ? total - prev : total;
      row.reads_by_node.reserve(load.reads_by_node.size());
      std::map<std::uint64_t, std::uint64_t> next_by_node;
      for (const auto& [client, reads] : load.reads_by_node) {
        const auto prev_it = prev_by_node.find(client);
        const std::uint64_t before =
            prev_it == prev_by_node.end() ? 0 : prev_it->second;
        row.reads_by_node.emplace_back(
            client, reads >= before ? reads - before : reads);
        next_by_node.emplace(client, reads);
      }
      prev_by_node = std::move(next_by_node);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

bool Rebalancer::eligible_target(NodeId node, CollectionId id) {
  StoreServer* server = repo_.server_at(node);
  if (server == nullptr || !server->serving()) return false;
  return server->collection(id) == nullptr || server->is_retired(id);
}

std::optional<Rebalancer::Move> Rebalancer::decide(
    const std::vector<FragmentView>& rows) {
  switch (options_.policy) {
    case RebalancePolicy::kNone: return std::nullopt;
    case RebalancePolicy::kLeastLoaded: return decide_least_loaded(rows);
    case RebalancePolicy::kLocality: return decide_locality(rows);
  }
  return std::nullopt;
}

std::optional<Rebalancer::Move> Rebalancer::decide_least_loaded(
    const std::vector<FragmentView>& rows) {
  // Window demand per store node (nodes hosting nothing count as 0 — they
  // are the natural drain).
  std::map<std::uint64_t, std::uint64_t> node_load;
  for (const NodeId node : repo_.server_nodes()) node_load[node.raw()] = 0;
  for (const FragmentView& row : rows) node_load[row.home.raw()] += row.window;
  if (node_load.size() < 2) return std::nullopt;

  // Hottest node (ties: lowest id), then its hottest movable fragment.
  std::uint64_t hot_node = 0, hot_load = 0;
  for (const auto& [node, load] : node_load) {
    if (load > hot_load) { hot_node = node; hot_load = load; }
  }
  if (hot_load < options_.min_window_load) return std::nullopt;

  const FragmentView* victim = nullptr;
  for (const FragmentView& row : rows) {
    if (row.home.raw() != hot_node || !row.movable || row.window == 0) continue;
    if (victim == nullptr || row.window > victim->window) victim = &row;
  }
  if (victim == nullptr) return std::nullopt;

  // Coldest eligible target (ties: lowest id).
  std::optional<std::uint64_t> cold_node;
  std::uint64_t cold_load = std::numeric_limits<std::uint64_t>::max();
  for (const auto& [node, load] : node_load) {
    if (node == hot_node || !eligible_target(NodeId{node}, victim->id)) {
      continue;
    }
    if (load < cold_load) { cold_node = node; cold_load = load; }
  }
  if (!cold_node) return std::nullopt;
  // Trigger only on real imbalance, and only if the move helps: the victim
  // must not just swap the hot spot over to the target.
  if (hot_load <
      kImbalanceRatio * std::max<std::uint64_t>(std::uint64_t{1}, cold_load)) {
    return std::nullopt;
  }
  if (cold_load + victim->window >= hot_load) return std::nullopt;
  return Move{victim->id, victim->fragment, victim->home, NodeId{*cold_node}};
}

std::optional<Rebalancer::Move> Rebalancer::decide_locality(
    const std::vector<FragmentView>& rows) {
  // For each movable fragment: the read-weighted network distance from its
  // readers, today vs at the best alternative home. Move the fragment with
  // the largest improvement past the threshold.
  Topology& topology = repo_.topology();
  std::optional<Move> best;
  std::uint64_t best_gain = 0;
  for (const FragmentView& row : rows) {
    if (!row.movable) continue;
    std::uint64_t window_reads = 0;
    for (const auto& [client, reads] : row.reads_by_node) {
      window_reads += reads;
    }
    if (window_reads < options_.min_window_load) continue;
    const auto cost_at = [&](NodeId home) -> std::optional<std::uint64_t> {
      std::uint64_t cost = 0;
      for (const auto& [client, reads] : row.reads_by_node) {
        if (reads == 0) continue;
        if (client == home.raw()) continue;  // local reads are free
        const std::optional<Duration> latency =
            topology.path_latency(NodeId{client}, home);
        if (!latency) return std::nullopt;  // a reader cannot reach this home
        cost += reads * static_cast<std::uint64_t>(latency->count_nanos());
      }
      return cost;
    };
    const std::optional<std::uint64_t> current = cost_at(row.home);
    if (!current) continue;
    for (const NodeId candidate : repo_.server_nodes()) {
      if (candidate == row.home || !eligible_target(candidate, row.id)) {
        continue;
      }
      const std::optional<std::uint64_t> moved = cost_at(candidate);
      if (!moved || *moved >= *current) continue;
      const std::uint64_t gain = *current - *moved;
      if (gain * 100 < *current * kMinImprovementPct) continue;
      if (gain > best_gain) {
        best_gain = gain;
        best = Move{row.id, row.fragment, row.home, candidate};
      }
    }
  }
  return best;
}

Task<void> Rebalancer::execute(Move move) {
  auto reply = co_await repo_.net().call_typed<msg::MigrateReply>(
      node_, move.source, "mig.execute",
      msg::MigrateRequest{move.id, move.fragment, move.target},
      kMigrateTimeout);
  if (reply) {
    ++committed_;
    metrics_.add(kMetrics.rebalance_commits);
  } else {
    metrics_.add(kMetrics.rebalance_failures);
  }
  if (in_flight_ > 0) --in_flight_;
}

}  // namespace weakset::placement
