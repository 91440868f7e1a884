#pragma once

// RPC over the simulated topology.
//
// The paper's model (section 2.1): "Processes (e.g., clients and servers)
// communicate via remote procedure calls. Thus the execution of an operation
// by a client at one node might actually involve a remote call to the
// operation exported by a server at a different node. ... We assume we can
// detect failures, e.g., those signaled from the lower network and transport
// layers."
//
// RpcNetwork delivers a request after the live path latency (with jitter),
// runs the registered handler as a server-side process, and delivers the
// reply the same way. A destination with no live path when the call is made
// fails fast, after the transport's detection delay (the paper's
// assumption). A message lost in flight, to a crash or a partition that
// happens while it travels, is only noticed by the caller's timeout.
//
// Hot-path memory discipline (DESIGN.md decision 13): method names are
// interned once into a dense MethodId table — dispatch is an index lookup,
// and the per-method metric ids ("rpc.<m>.latency_ns", ...) and span names
// ("<m>#serve") are resolved at intern time, so a call records by id and
// never builds or looks up a telemetry string. Payloads travel in pooled
// Payload boxes instead of std::any, and live-path latencies are cached
// against the topology version instead of re-running Dijkstra per message.
// None of this changes simulated-time behaviour: RNG draws, event ordering,
// and every metric/span name are byte-identical to the string-keyed
// implementation.

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/payload.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace weakset {

/// Construction options of an RpcNetwork.
struct RpcOptions {
  /// Telemetry sink: per-op latency histograms, outcome counters, and call
  /// spans land here. nullptr = the process-global registry (obs::global()).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Counters for benchmarks (message cost of the different semantics).
struct RpcStats {
  std::uint64_t calls = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
};

/// Dense identifier of an interned RPC method name, scoped to the RpcNetwork
/// that minted it. Hot call sites intern once (RpcNetwork::intern) and call
/// by id; string call sites intern transparently per call (a hash lookup, no
/// allocation). Deliberately a non-aggregate: MethodId crosses coroutine
/// boundaries by value, and the library-wide GCC 12 rule is that coroutine
/// by-value parameters must be non-aggregates.
class MethodId {
 public:
  MethodId() : index_(kInvalid) {}

  [[nodiscard]] bool valid() const noexcept { return index_ != kInvalid; }
  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

  friend bool operator==(MethodId a, MethodId b) {
    return a.index_ == b.index_;
  }

 private:
  friend class RpcNetwork;
  explicit MethodId(std::uint32_t index) : index_(index) {}
  static constexpr std::uint32_t kInvalid = ~std::uint32_t{0};
  std::uint32_t index_;
};

/// The RPC fabric shared by all nodes of one simulation.
class RpcNetwork {
 public:
  /// A server-side method: receives the caller's node and the request payload,
  /// returns the reply. Runs as a process on the simulator, so it may
  /// co_await (disk latency, nested RPCs, ...).
  using Handler =
      std::function<Task<Result<Payload>>(NodeId from, Payload request)>;

  RpcNetwork(Simulator& sim, Topology& topology, Rng rng,
             RpcOptions options = {})
      : sim_(sim),
        topology_(topology),
        rng_(rng),
        metrics_(obs::sink(options.metrics)) {}
  RpcNetwork(const RpcNetwork&) = delete;
  RpcNetwork& operator=(const RpcNetwork&) = delete;

  /// Interns `method` (idempotent), returning its dense id. Ids are stable
  /// for the lifetime of this network.
  MethodId intern(std::string_view method);

  /// The interned name behind `method`.
  [[nodiscard]] const std::string& method_name(MethodId method) const {
    return info(method).name;
  }

  /// Registers (or replaces) `method` on `node`. Node ids are the dense ids
  /// minted by Topology::add_node.
  void register_handler(NodeId node, MethodId method, Handler handler);
  void register_handler(NodeId node, std::string_view method,
                        Handler handler) {
    register_handler(node, intern(method), std::move(handler));
  }

  /// The handler registered for (node, method), or nullptr. The serve path
  /// dispatches through this same dense table.
  [[nodiscard]] const Handler* find_handler(NodeId node,
                                            MethodId method) const;

  /// Deadline for a call when none is given explicitly.
  static constexpr Duration kDefaultTimeout = Duration::seconds(2);

  /// Calls `method` on `to` from `from` with the default timeout.
  Task<Result<Payload>> call(NodeId from, NodeId to, MethodId method,
                             Payload request) {
    return call(from, to, method, std::move(request), kDefaultTimeout);
  }
  Task<Result<Payload>> call(NodeId from, NodeId to, std::string_view method,
                             Payload request) {
    return call(from, to, intern(method), std::move(request), kDefaultTimeout);
  }

  /// Calls `method` on `to` from `from`, failing with kTimeout after
  /// `timeout` if no reply (or detected failure) arrives sooner.
  Task<Result<Payload>> call(NodeId from, NodeId to, MethodId method,
                             Payload request, Duration timeout);
  Task<Result<Payload>> call(NodeId from, NodeId to, std::string_view method,
                             Payload request, Duration timeout) {
    return call(from, to, intern(method), std::move(request), timeout);
  }

  /// Typed convenience wrapper: casts the reply payload to `Resp`.
  ///
  /// Deliberately NOT a coroutine: GCC 12 miscompiles by-value coroutine
  /// parameters of aggregate type passed as temporaries (the frame aliases
  /// the caller's temporary instead of copying it). The user's `Req` struct
  /// is boxed into a Payload here, in a plain function frame, and only
  /// non-aggregate types cross the coroutine boundary. This constraint holds
  /// library-wide: coroutine by-value parameters must be non-aggregates.
  template <typename Resp, typename Req>
  Task<Result<Resp>> call_typed(NodeId from, NodeId to, MethodId method,
                                Req request,
                                std::optional<Duration> timeout = {}) {
    return call_typed_impl<Resp>(from, to, method, Payload{std::move(request)},
                                 timeout.value_or(kDefaultTimeout));
  }
  template <typename Resp, typename Req>
  Task<Result<Resp>> call_typed(NodeId from, NodeId to,
                                std::string_view method, Req request,
                                std::optional<Duration> timeout = {}) {
    return call_typed<Resp>(from, to, intern(method), std::move(request),
                            timeout);
  }

  /// Call and message counters since construction.
  [[nodiscard]] const RpcStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] Topology& topology() noexcept { return topology_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }

 private:
  /// Everything derived from a method name, computed once at intern time.
  struct MethodInfo {
    explicit MethodInfo(std::string_view method);

    std::string name;
    obs::HistogramId latency;      // "rpc.<name>.latency_ns"
    obs::CounterId ok;             // "rpc.<name>.ok"
    obs::CounterId failed;         // "rpc.<name>.failed"
    obs::CounterId timeouts;       // "rpc.<name>.timeouts"
    std::string serve_name;        // "<name>#serve"
    std::string not_found_detail;  // "no handler for <name>"
  };

  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  [[nodiscard]] const MethodInfo& info(MethodId method) const {
    assert(method.valid() && method.index() < methods_.size());
    return methods_[method.index()];
  }

  template <typename Resp>
  Task<Result<Resp>> call_typed_impl(NodeId from, NodeId to, MethodId method,
                                     Payload request, Duration timeout) {
    Result<Payload> raw =
        co_await call(from, to, method, std::move(request), timeout);
    if (!raw) co_return std::move(raw).error();
    Resp* typed = payload_cast<Resp>(&raw.value());
    assert(typed != nullptr && "RPC reply type mismatch");
    co_return std::move(*typed);
  }

  /// One-way delivery latency for the current live path, with jitter; nullopt
  /// if no live path exists right now.
  std::optional<Duration> delivery_latency(NodeId from, NodeId to);

  /// Cached jitter-free live-path latency (the route cache): recomputed
  /// lazily per (from, to) pair, invalidated wholesale whenever the topology
  /// version moves. Semantically identical to Topology::path_latency.
  std::optional<Duration> base_latency(NodeId from, NodeId to);

  /// Cached Topology::can_communicate (a live path exists, endpoints up).
  bool route_alive(NodeId from, NodeId to) {
    return base_latency(from, to).has_value();
  }

  /// Server-side: runs the handler and sends the reply back. `call_span` is
  /// the caller's span id; the serve span nests under it.
  Task<void> serve(NodeId from, NodeId to, MethodId method, Payload request,
                   OneShot<Result<Payload>> reply_to, std::uint64_t call_span);

  Simulator& sim_;
  Topology& topology_;
  Rng rng_;
  obs::MetricsRegistry& metrics_;
  RpcStats stats_;

  /// Intern table. A deque so MethodInfo addresses stay stable while new
  /// methods are interned mid-call (references are held across co_awaits).
  std::deque<MethodInfo> methods_;
  std::unordered_map<std::string, std::uint32_t, StringHash, std::equal_to<>>
      method_index_;
  /// Dense dispatch table: handlers_[node][method].
  std::vector<std::vector<Handler>> handlers_;

  /// Route cache: latency nanos per (from, to), kRouteUnknown when not yet
  /// computed for the current topology version, kRouteNoPath when down.
  static constexpr std::int64_t kRouteUnknown = -1;
  static constexpr std::int64_t kRouteNoPath = -2;
  std::vector<std::int64_t> route_latency_;
  std::uint64_t route_version_ = ~std::uint64_t{0};
  std::size_t route_nodes_ = 0;
};

}  // namespace weakset
