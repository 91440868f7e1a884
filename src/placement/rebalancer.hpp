#pragma once

// Load-aware rebalancing (DESIGN.md decision 12).
//
// A periodic control-plane task that reads the per-fragment demand counters
// the store servers maintain (plain integers — collecting them costs no
// simulated time and never perturbs a baseline), decides whether a fragment
// should move, and drives the move through the migration engine's
// mig.execute RPC. Policies:
//
//   kNone         never migrates (the default: with no rebalancer running —
//                 or one running with this policy — every pre-placement
//                 event sequence is byte-identical)
//   kLeastLoaded  when one node's demand runs hot relative to the coldest
//                 node, move its hottest movable fragment there
//   kLocality     move a fragment toward the clients reading it, when the
//                 read-weighted network distance improves enough
//
// Decisions are taken over per-interval demand windows (deltas of the
// cumulative counters), in deterministic order (sorted collections, fragment
// index, ascending node ids), with a concurrent-migration budget.

#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "net/rpc.hpp"
#include "obs/metrics.hpp"
#include "placement/messages.hpp"
#include "store/repository.hpp"

namespace weakset::placement {

enum class RebalancePolicy {
  kNone,
  kLeastLoaded,
  kLocality,
};

/// "none" / "least-loaded" / "locality" (bench CLI vocabulary); nullopt on
/// anything else.
[[nodiscard]] std::optional<RebalancePolicy> parse_policy(
    std::string_view name);
[[nodiscard]] const char* policy_name(RebalancePolicy policy);

struct RebalancerOptions {
  RebalancePolicy policy = RebalancePolicy::kNone;
  /// Demand-window length: counters are scanned (and deltas formed) at this
  /// period.
  Duration interval = Duration::millis(500);
  /// Noise floor: a fragment (kLocality) or node (kLeastLoaded) below this
  /// many window events never triggers a move.
  std::uint64_t min_window_load = 8;
  /// Telemetry sink. nullptr = the process-global registry.
  obs::MetricsRegistry* metrics = nullptr;
};

class Rebalancer {
 public:
  Rebalancer(Repository& repo, NodeId node, RebalancerOptions options = {});
  Rebalancer(const Rebalancer&) = delete;
  Rebalancer& operator=(const Rebalancer&) = delete;

  /// Adds a collection to the managed set (scanned every interval).
  void manage(CollectionId id);

  /// Spawns the periodic scan loop. No-op under kNone: the policy that
  /// never acts also never schedules an event. The rebalancer must outlive
  /// the run (stop() + drain before destruction).
  void start();
  void stop() noexcept { stopping_ = true; }

  [[nodiscard]] std::uint64_t moves_requested() const noexcept {
    return requested_;
  }
  [[nodiscard]] std::uint64_t moves_committed() const noexcept {
    return committed_;
  }

 private:
  /// One scanned fragment: where it lives and what its demand window was.
  struct FragmentView {
    CollectionId id;
    std::size_t fragment = 0;
    NodeId home;
    bool movable = false;  ///< unreplicated and not mid-anything
    std::uint64_t window = 0;  ///< reads+ops this interval
    /// (client node raw id, reads this interval), ascending node order.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reads_by_node;
  };
  struct Move {
    CollectionId id;
    std::size_t fragment = 0;
    NodeId source;
    NodeId target;
  };

  Task<void> run_loop();
  [[nodiscard]] std::vector<FragmentView> scan();
  [[nodiscard]] std::optional<Move> decide(
      const std::vector<FragmentView>& rows);
  [[nodiscard]] std::optional<Move> decide_least_loaded(
      const std::vector<FragmentView>& rows);
  [[nodiscard]] std::optional<Move> decide_locality(
      const std::vector<FragmentView>& rows);
  /// True if `node` can accept `id` (serves, does not already host it).
  [[nodiscard]] bool eligible_target(NodeId node, CollectionId id);
  Task<void> execute(Move move);

  Repository& repo_;
  NodeId node_;
  RebalancerOptions options_;
  obs::MetricsRegistry& metrics_;
  std::vector<CollectionId> managed_;
  /// Cumulative counters at the previous scan, keyed (collection raw,
  /// fragment index) — ordered, so scans iterate deterministically.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> last_total_;
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::map<std::uint64_t, std::uint64_t>>
      last_by_node_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::uint64_t requested_ = 0;
  std::uint64_t committed_ = 0;
};

}  // namespace weakset::placement
