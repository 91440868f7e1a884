#include "net/rpc.hpp"

#include <utility>

namespace weakset {
namespace {

/// The RPC layer's method-independent telemetry names, interned once per
/// process.
struct RpcMetrics {
  obs::CounterId calls{"rpc.calls"};
  obs::CounterId completed{"rpc.completed"};
  obs::CounterId failed{"rpc.failed"};
  obs::CounterId timeouts{"rpc.timeouts"};
  obs::CounterId messages_delivered{"rpc.messages_delivered"};
  obs::CounterId messages_dropped{"rpc.messages_dropped"};
};
const RpcMetrics kMetrics{};

/// Cost of a same-node "RPC" (kernel round trip, not network).
constexpr Duration kLocalLatency = Duration::micros(20);
/// Per-message multiplicative jitter: delivery takes latency * U[1, 1+j].
constexpr double kJitter = 0.2;
/// How long the transport takes to signal an unreachable destination
/// (lower layers signal the failure, per the paper).
constexpr Duration kDetectionDelay = Duration::millis(2);

}  // namespace

RpcNetwork::MethodInfo::MethodInfo(std::string_view method)
    : name(method),
      latency("rpc." + name + ".latency_ns"),
      ok("rpc." + name + ".ok"),
      failed("rpc." + name + ".failed"),
      timeouts("rpc." + name + ".timeouts"),
      serve_name(name + "#serve"),
      not_found_detail("no handler for " + name) {}

MethodId RpcNetwork::intern(std::string_view method) {
  if (const auto it = method_index_.find(method); it != method_index_.end()) {
    return MethodId{it->second};
  }
  const auto index = static_cast<std::uint32_t>(methods_.size());
  methods_.emplace_back(method);
  method_index_.emplace(methods_.back().name, index);
  return MethodId{index};
}

void RpcNetwork::register_handler(NodeId node, MethodId method,
                                  Handler handler) {
  assert(method.valid());
  const auto n = static_cast<std::size_t>(node.raw());
  if (handlers_.size() <= n) handlers_.resize(n + 1);
  auto& table = handlers_[n];
  if (table.size() <= method.index()) table.resize(method.index() + 1);
  table[method.index()] = std::move(handler);
}

const RpcNetwork::Handler* RpcNetwork::find_handler(NodeId node,
                                                    MethodId method) const {
  const auto n = static_cast<std::size_t>(node.raw());
  if (!method.valid() || n >= handlers_.size() ||
      method.index() >= handlers_[n].size()) {
    return nullptr;
  }
  const Handler& handler = handlers_[n][method.index()];
  return handler ? &handler : nullptr;
}

std::optional<Duration> RpcNetwork::base_latency(NodeId from, NodeId to) {
  if (route_version_ != topology_.version()) {
    route_version_ = topology_.version();
    route_nodes_ = topology_.node_count();
    // assign() reuses the vector's capacity once the node count stabilises.
    route_latency_.assign(route_nodes_ * route_nodes_, kRouteUnknown);
  }
  const auto src = static_cast<std::size_t>(from.raw());
  const auto dst = static_cast<std::size_t>(to.raw());
  assert(src < route_nodes_ && dst < route_nodes_);
  std::int64_t& slot = route_latency_[src * route_nodes_ + dst];
  if (slot == kRouteUnknown) {
    const auto base = topology_.path_latency(from, to);
    slot = base ? base->count_nanos() : kRouteNoPath;
  }
  if (slot == kRouteNoPath) return std::nullopt;
  return Duration::nanos(slot);
}

std::optional<Duration> RpcNetwork::delivery_latency(NodeId from, NodeId to) {
  if (from == to) {
    return kLocalLatency;
  }
  const auto base = base_latency(from, to);
  if (!base) return std::nullopt;
  const double factor = 1.0 + kJitter * rng_.uniform_double();
  return Duration::nanos(static_cast<std::int64_t>(
      static_cast<double>(base->count_nanos()) * factor));
}

Task<Result<Payload>> RpcNetwork::call(NodeId from, NodeId to, MethodId method,
                                       Payload request, Duration timeout) {
  ++stats_.calls;
  metrics_.add(kMetrics.calls);
  const MethodInfo& info = this->info(method);  // deque: stable across awaits
  const SimTime call_started = sim_.now();
  const std::uint64_t call_span =
      metrics_.begin_span(info.name, topology_.name(to), call_started);
  OneShot<Result<Payload>> reply{sim_};

  // Arm the timeout first: it must fire even if everything else is dropped.
  const auto timeout_timer =
      sim_.schedule_cancellable(timeout, [reply]() mutable {
        reply.try_set(Failure{FailureKind::kTimeout, "rpc deadline exceeded"});
      });

  const auto request_latency = delivery_latency(from, to);
  if (!request_latency) {
    // No live path: failures are detectable (the paper's assumption), so
    // the transport signals this quickly.
    sim_.schedule(kDetectionDelay, [this, to, reply]() mutable {
      const auto kind = topology_.is_up(to) ? FailureKind::kPartitioned
                                            : FailureKind::kNodeCrashed;
      reply.try_set(Failure{kind, "destination unreachable"});
    });
  } else {
    // Deliver the request after the path latency. Reachability is
    // re-checked at delivery time: a partition or crash occurring while the
    // message is in flight loses the message.
    sim_.schedule(*request_latency, [this, from, to, method, reply, call_span,
                                     req = std::move(request)]() mutable {
      if (!topology_.is_up(to) || !route_alive(from, to)) {
        ++stats_.messages_dropped;
        metrics_.add(kMetrics.messages_dropped);
        return;  // lost; the caller's timeout will fire
      }
      ++stats_.messages_delivered;
      metrics_.add(kMetrics.messages_delivered);
      sim_.spawn(serve(from, to, method, std::move(req), reply, call_span));
    });
  }

  Result<Payload> outcome = co_await reply.wait();
  timeout_timer.cancel();
  metrics_.record(info.latency, sim_.now() - call_started);
  if (outcome) {
    ++stats_.completed;
    metrics_.add(kMetrics.completed);
    metrics_.add(info.ok);
    metrics_.end_span(call_span, sim_.now(), "ok");
  } else {
    ++stats_.failed;
    metrics_.add(kMetrics.failed);
    metrics_.add(info.failed);
    if (outcome.error().kind == FailureKind::kTimeout) {
      ++stats_.timeouts;
      metrics_.add(kMetrics.timeouts);
      metrics_.add(info.timeouts);
      metrics_.end_span(call_span, sim_.now(), "timeout");
    } else {
      metrics_.end_span(call_span, sim_.now(), "failed");
    }
  }
  co_return outcome;
}

Task<void> RpcNetwork::serve(NodeId from, NodeId to, MethodId method,
                             Payload request,
                             OneShot<Result<Payload>> reply_to,
                             std::uint64_t call_span) {
  const MethodInfo& info = this->info(method);  // deque: stable across awaits
  const std::uint64_t serve_span = metrics_.begin_span(
      info.serve_name, topology_.name(from), sim_.now(), call_span);
  const Handler* handler = find_handler(to, method);
  Result<Payload> result{Payload{}};
  if (handler != nullptr) {
    result = co_await (*handler)(from, std::move(request));
  } else {
    result = Failure{FailureKind::kNotFound, info.not_found_detail};
  }

  // Send the reply back; it travels the (possibly changed) live path and is
  // lost if the topology no longer connects the two nodes. The caller then
  // only learns via its timeout, since nothing can cross the partition.
  const auto reply_latency = delivery_latency(to, from);
  if (!reply_latency) {
    ++stats_.messages_dropped;
    metrics_.add(kMetrics.messages_dropped);
    metrics_.end_span(serve_span, sim_.now(), "dropped");
    co_return;
  }
  metrics_.end_span(serve_span, sim_.now(), result ? "ok" : "failed");
  sim_.schedule(*reply_latency, [this, from, to, reply_to,
                                 res = std::move(result)]() mutable {
    if (!topology_.is_up(from) || !route_alive(to, from)) {
      ++stats_.messages_dropped;
      metrics_.add(kMetrics.messages_dropped);
      return;
    }
    ++stats_.messages_delivered;
    metrics_.add(kMetrics.messages_delivered);
    reply_to.try_set(std::move(res));
  });
}

}  // namespace weakset
