#include "store/client.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "util/pool.hpp"

namespace weakset {
namespace {

/// This module's telemetry names, interned once per process.
struct ClientMetrics {
  obs::CounterId delta_cache_hits{"store.client.delta_cache_hits"};
  obs::CounterId delta_cache_misses{"store.client.delta_cache_misses"};
  obs::CounterId fetch_batch_rpcs{"store.client.fetch_batch_rpcs"};
  obs::CounterId fetch_manys{"store.client.fetch_manys"};
  obs::CounterId fragment_reads_delta{"store.client.fragment_reads_delta"};
  obs::CounterId fragment_reads_full{"store.client.fragment_reads_full"};
  obs::CounterId members_shipped{"store.client.members_shipped"};
  obs::CounterId ops_shipped{"store.client.ops_shipped"};
  obs::CounterId orset_write_failovers{"store.client.orset_write_failovers"};
  obs::CounterId read_alls{"store.client.read_alls"};
  obs::CounterId snapshots_atomic{"store.client.snapshots_atomic"};
  obs::CounterId wrong_epoch_retries{"store.client.wrong_epoch_retries"};
  obs::HistogramId fetch_many_size{"store.client.fetch_many_size"};
  obs::HistogramId read_all_latency_ns{"store.client.read_all_latency_ns"};
  obs::HistogramId snapshot_atomic_latency_ns{
      "store.client.snapshot_atomic_latency_ns"};
};
const ClientMetrics kMetrics{};

}  // namespace

std::optional<NodeId> RepositoryClient::pick_read_host(
    const FragmentMeta& fragment) const {
  const Topology& topo = repo_.net().topology();
  if (options_.read_policy == ReadPolicy::kPrimaryOnly) {
    if (topo.can_communicate(node_, fragment.primary())) {
      return fragment.primary();
    }
    return std::nullopt;
  }
  // kNearest: cheapest reachable host among primary and replicas.
  std::optional<NodeId> best;
  Duration best_latency = Duration::max();
  auto consider = [&](NodeId host) {
    const auto latency = topo.path_latency(node_, host);
    if (latency && *latency < best_latency) {
      best = host;
      best_latency = *latency;
    }
  };
  consider(fragment.primary());
  for (const NodeId replica : fragment.replicas()) consider(replica);
  return best;
}

Task<Result<msg::SnapshotReply>> RepositoryClient::read_fragment(
    CollectionId id, std::size_t fragment) {
  for (int attempt = 0;; ++attempt) {
    const FragmentMeta& frag = resolve(id).fragments().at(fragment);
    if (options_.read_policy == ReadPolicy::kQuorum) {
      co_return co_await read_fragment_quorum(id, frag);
    }
    const auto host = pick_read_host(frag);
    if (!host) {
      co_return Failure{FailureKind::kPartitioned,
                        "no reachable host for fragment"};
    }
    auto reply = co_await call<msg::SnapshotReply>(*host, methods_.snapshot,
                                                   msg::SnapshotRequest{id});
    if (reply) co_return std::move(reply).value();
    Failure failure = std::move(reply).error();
    if (failure.kind == FailureKind::kWrongEpoch && attempt == 0 &&
        co_await heal_wrong_epoch(id, failure)) {
      continue;  // retry exactly once against the refreshed directory
    }
    co_return failure;
  }
}

Task<bool> RepositoryClient::heal_wrong_epoch(CollectionId id,
                                              const Failure& failure) {
  if (options_.directory == nullptr) co_return false;
  // The rejecting server's current directory epoch travels as decimal text
  // in the failure detail — the only structured use of Failure::detail
  // (failure.hpp). Unparseable detail degrades to 0, which the directory
  // treats as "force a lookup".
  std::uint64_t current = 0;
  for (const char c : failure.detail) {
    if (c < '0' || c > '9') {
      current = 0;
      break;
    }
    current = current * 10 + static_cast<std::uint64_t>(c - '0');
  }
  metrics_.add(kMetrics.wrong_epoch_retries);
  co_return co_await options_.directory->refresh(id, current);
}

namespace {
// All read_all workers are free-function coroutines (never member
// coroutines holding `this`): an abandoned gather must not leave a worker
// dereferencing a dead client. Cache mutation happens only in read_all's
// own frame, after gathering.

Task<void> snapshot_into(
    RpcNetwork& net, NodeId from, NodeId host, MethodId method,
    CollectionId id, std::optional<Duration> timeout,
    std::shared_ptr<AsyncQueue<Result<msg::SnapshotReply>>> arrivals) {
  Result<msg::SnapshotReply> reply =
      co_await net.call_typed<msg::SnapshotReply>(
          from, host, method, msg::SnapshotRequest{id}, timeout);
  arrivals->push(std::move(reply));
}

/// Quorum fragment read: scatter to `hosts`, gather the first `needed`
/// successful replies, return the freshest (highest version).
Task<Result<msg::SnapshotReply>> quorum_snapshot(
    RpcNetwork& net, NodeId from, std::vector<NodeId> hosts, MethodId method,
    CollectionId id, std::size_t needed, std::optional<Duration> timeout) {
  // Scatter to every host; gather replies in ARRIVAL order so a small
  // quorum completes as soon as the nearest hosts answer. The gather must
  // outlive this frame if abandoned, so the arrival queue is heap-shared.
  Simulator& sim = net.sim();
  auto arrivals =
      std::make_shared<AsyncQueue<Result<msg::SnapshotReply>>>(sim);
  for (const NodeId host : hosts) {
    sim.spawn(snapshot_into(net, from, host, method, id, timeout, arrivals));
  }

  std::optional<msg::SnapshotReply> freshest;
  std::size_t successes = 0;
  for (std::size_t answered = 0; answered < hosts.size(); ++answered) {
    std::optional<Result<msg::SnapshotReply>> reply =
        co_await arrivals->pop();
    if (!reply) break;  // cannot happen: queue is never closed
    if (!reply->has_value()) continue;
    ++successes;
    if (!freshest || reply->value().version() > freshest->version()) {
      freshest = std::move(*reply).value();
    }
    if (successes >= needed) break;
  }
  if (successes < needed) {
    co_return Failure{FailureKind::kUnreachable,
                      "quorum not reached: " + std::to_string(successes) +
                          "/" + std::to_string(needed)};
  }
  co_return std::move(*freshest);
}

/// One (fragment index, normalised reply) arrival of the read_all
/// scatter-gather. Every reply form — plain snapshot, quorum-selected
/// snapshot, delta — normalises to a DeltaReply; snapshot-path replies
/// carry seq 0, which is fine because only delta-path replies reach the
/// cache.
using FragmentArrival = std::pair<std::size_t, Result<msg::DeltaReply>>;
using FragmentQueue = std::shared_ptr<AsyncQueue<FragmentArrival>>;

Task<void> snapshot_fragment_into(RpcNetwork& net, NodeId from, NodeId host,
                                  MethodId method, CollectionId id,
                                  std::optional<Duration> timeout,
                                  std::size_t index, FragmentQueue arrivals) {
  Result<msg::SnapshotReply> reply =
      co_await net.call_typed<msg::SnapshotReply>(
          from, host, method, msg::SnapshotRequest{id}, timeout);
  if (!reply.has_value()) {
    arrivals->push(FragmentArrival{index, std::move(reply).error()});
    co_return;
  }
  const std::uint64_t version = reply.value().version();
  arrivals->push(FragmentArrival{
      index, msg::DeltaReply::full_snapshot(
                 std::move(reply).value().take_members(), version, 0)});
}

Task<void> delta_fragment_into(RpcNetwork& net, NodeId from, NodeId host,
                               MethodId method, CollectionId id,
                               std::uint64_t since_seq,
                               std::uint64_t since_incarnation,
                               std::optional<Duration> timeout,
                               std::size_t index, FragmentQueue arrivals) {
  Result<msg::DeltaReply> reply = co_await net.call_typed<msg::DeltaReply>(
      from, host, method,
      msg::DeltaRequest{id, since_seq, since_incarnation}, timeout);
  arrivals->push(FragmentArrival{index, std::move(reply)});
}

Task<void> quorum_fragment_into(RpcNetwork& net, NodeId from,
                                std::vector<NodeId> hosts, MethodId method,
                                CollectionId id, std::size_t needed,
                                std::optional<Duration> timeout,
                                std::size_t index, FragmentQueue arrivals) {
  Result<msg::SnapshotReply> reply = co_await quorum_snapshot(
      net, from, std::move(hosts), method, id, needed, timeout);
  if (!reply.has_value()) {
    arrivals->push(FragmentArrival{index, std::move(reply).error()});
    co_return;
  }
  const std::uint64_t version = reply.value().version();
  arrivals->push(FragmentArrival{
      index, msg::DeltaReply::full_snapshot(
                 std::move(reply).value().take_members(), version, 0)});
}

std::vector<NodeId> fragment_hosts(const FragmentMeta& fragment) {
  std::vector<NodeId> hosts;
  hosts.push_back(fragment.primary());
  hosts.insert(hosts.end(), fragment.replicas().begin(),
               fragment.replicas().end());
  return hosts;
}
}  // namespace

Task<Result<msg::SnapshotReply>> RepositoryClient::read_fragment_quorum(
    CollectionId id, const FragmentMeta& fragment) {
  const std::size_t count = 1 + fragment.replicas().size();
  co_return co_await quorum_snapshot(repo_.net(), node_,
                                     fragment_hosts(fragment),
                                     methods_.snapshot, id,
                                     std::min(options_.quorum, count),
                                     options_.rpc_timeout);
}

const std::vector<ObjectRef>& RepositoryClient::absorb_delta(
    const CacheKey& key, msg::DeltaReply reply) {
  FragmentCacheEntry& entry = delta_cache_[key];
  if (reply.is_delta()) {
    ++read_stats_.fragment_reads_delta;
    ++last_read_delta_;
    read_stats_.ops_shipped += reply.ops().size();
    // Delta cache hit: the host shipped only the ops since our cursor.
    metrics_.add(kMetrics.delta_cache_hits);
    metrics_.add(kMetrics.fragment_reads_delta);
    metrics_.add(kMetrics.ops_shipped, reply.ops().size());
    // Replaying the host's ops over the previous materialisation reproduces
    // the host's member order exactly (MemberList is the same structure the
    // server mutates), so a delta-synced read and a full read of the same
    // host state return identical sequences. Ops at or below the entry's
    // cursor are skipped: overlapping read_alls on one client send the same
    // `since` cursor, and whichever absorbs second would otherwise re-replay
    // a prefix the entry already applied — re-removing a member that was
    // later re-added permutes the cached order relative to the host.
    for (const CollectionOp& op : reply.ops()) {
      if (op.seq() <= entry.seq) continue;
      if (op.kind() == CollectionOp::Kind::kAdd) {
        entry.members.insert(op.ref());
      } else {
        entry.members.erase(op.ref());
      }
    }
    entry.seq = std::max(entry.seq, reply.seq());
    entry.version = std::max(entry.version, reply.version());
    VectorPool<CollectionOp>::release(std::move(reply).take_ops());
  } else {
    ++read_stats_.fragment_reads_full;
    ++last_read_full_;
    read_stats_.members_shipped += reply.members().size();
    // Delta cache miss (first contact, host switch, or truncated server
    // log): the host resynced us with a full snapshot.
    metrics_.add(kMetrics.delta_cache_misses);
    metrics_.add(kMetrics.fragment_reads_full);
    metrics_.add(kMetrics.members_shipped, reply.members().size());
    // A snapshot install is wholesale: members, version and cursor are one
    // consistent host state, even if an overlapping absorb left the entry
    // ahead of it (the next delta read simply catches up from here).
    entry.seq = reply.seq();
    entry.version = reply.version();
    entry.incarnation = reply.incarnation();
    entry.members.assign(std::move(reply).take_members());
  }
  return entry.members.members();
}

Task<Result<std::vector<ObjectRef>>> RepositoryClient::read_all(
    CollectionId id) {
  Result<std::vector<ObjectRef>> result = co_await read_all_attempt(id);
  if (!result && result.error().kind == FailureKind::kWrongEpoch &&
      co_await heal_wrong_epoch(id, result.error())) {
    // A fragment moved under our cached directory: one more fan-out against
    // the refreshed placement (a second wrong-epoch failure propagates).
    result = co_await read_all_attempt(id);
  }
  co_return result;
}

Task<Result<std::vector<ObjectRef>>> RepositoryClient::read_all_attempt(
    CollectionId id) {
  const CollectionMeta& meta = resolve(id);
  const std::size_t fragments = meta.fragment_count();
  Simulator& sim = repo_.sim();
  const SimTime start = sim.now();
  ++read_stats_.read_alls;
  metrics_.add(kMetrics.read_alls);
  last_read_full_ = 0;
  last_read_delta_ = 0;

  // Scatter: one worker per fragment, every per-fragment RPC (or quorum
  // sub-scatter) in flight at once, so whole-set latency is the max of the
  // fragment reads instead of their sum. The gather must outlive this frame
  // if abandoned, so the arrival queue is heap-shared (cf. quorum_snapshot).
  auto arrivals = std::make_shared<AsyncQueue<FragmentArrival>>(sim);
  std::vector<std::optional<Result<msg::DeltaReply>>> slots(fragments);
  // Which host answers each delta-path fragment; invalid() marks fragments
  // read without the cache (full-only policies, unreachable fragments).
  std::vector<NodeId> delta_hosts(fragments, NodeId::invalid());
  std::size_t spawned = 0;
  for (std::size_t f = 0; f < fragments; ++f) {
    const FragmentMeta& frag = meta.fragments()[f];
    if (options_.read_policy == ReadPolicy::kQuorum) {
      std::vector<NodeId> hosts = fragment_hosts(frag);
      const std::size_t needed = std::min(options_.quorum, hosts.size());
      sim.spawn(quorum_fragment_into(repo_.net(), node_, std::move(hosts),
                                     methods_.snapshot, id, needed,
                                     options_.rpc_timeout, f, arrivals));
      ++spawned;
      continue;
    }
    const auto host = pick_read_host(frag);
    if (!host) {
      slots[f] = Failure{FailureKind::kPartitioned,
                         "no reachable host for fragment"};
      continue;
    }
    if (options_.delta_reads) {
      delta_hosts[f] = *host;
      const auto it = delta_cache_.find(CacheKey{id, f, *host});
      const std::uint64_t since =
          it == delta_cache_.end() ? 0 : it->second.seq;
      const std::uint64_t since_incarnation =
          it == delta_cache_.end() ? 0 : it->second.incarnation;
      sim.spawn(delta_fragment_into(repo_.net(), node_, *host,
                                    methods_.read_delta, id, since,
                                    since_incarnation, options_.rpc_timeout,
                                    f, arrivals));
    } else {
      sim.spawn(snapshot_fragment_into(repo_.net(), node_, *host,
                                       methods_.snapshot, id,
                                       options_.rpc_timeout, f, arrivals));
    }
    ++spawned;
  }
  for (std::size_t answered = 0; answered < spawned; ++answered) {
    std::optional<FragmentArrival> arrival = co_await arrivals->pop();
    if (!arrival) break;  // cannot happen: queue is never closed
    slots[arrival->first] = std::move(arrival->second);
  }

  // Deterministic assembly in fragment order. On failure, report the
  // lowest-index failing fragment (what the serial path reported) — after
  // the cache has absorbed whatever succeeded.
  std::vector<ObjectRef> members;
  std::optional<Failure> first_failure;
  for (std::size_t f = 0; f < fragments; ++f) {
    if (!slots[f].has_value()) {
      // Aborted gather (queue closed early): "cannot happen", but must
      // degrade to a reported failure, not an empty-optional dereference.
      if (!first_failure) {
        first_failure =
            Failure{FailureKind::kPartitioned, "read_all gather aborted"};
      }
      continue;
    }
    Result<msg::DeltaReply>& slot = *slots[f];
    if (!slot.has_value()) {
      if (!first_failure) first_failure = std::move(slot).error();
      continue;
    }
    if (delta_hosts[f].valid()) {
      const std::vector<ObjectRef>& part = absorb_delta(
          CacheKey{id, f, delta_hosts[f]}, std::move(slot).value());
      members.insert(members.end(), part.begin(), part.end());
    } else {
      ++read_stats_.fragment_reads_full;
      ++last_read_full_;
      read_stats_.members_shipped += slot.value().entry_count();
      // Cache-bypassing full read (quorum policy, or delta reads disabled).
      metrics_.add(kMetrics.fragment_reads_full);
      metrics_.add(kMetrics.members_shipped, slot.value().entry_count());
      std::vector<ObjectRef> part = std::move(slot).value().take_members();
      members.insert(members.end(), part.begin(), part.end());
      VectorPool<ObjectRef>::release(std::move(part));
    }
  }
  read_stats_.read_all_time = read_stats_.read_all_time + (sim.now() - start);
  metrics_.record(kMetrics.read_all_latency_ns, sim.now() - start);
  if (first_failure) co_return std::move(*first_failure);
  co_return members;
}

Task<Result<std::vector<ObjectRef>>> RepositoryClient::snapshot_atomic(
    CollectionId id, std::function<void()> on_cut) {
  const SimTime start = repo_.sim().now();
  metrics_.add(kMetrics.snapshots_atomic);
  auto frozen = co_await freeze_all(id);
  if (!frozen) co_return std::move(frozen).error();
  // Read the primaries directly: they are frozen, so the union of fragment
  // reads is a consistent cut of the whole collection.
  const CollectionMeta& meta = resolve(id);
  std::vector<ObjectRef> members;
  Result<std::vector<ObjectRef>> outcome = members;
  for (const FragmentMeta& frag : meta.fragments()) {
    auto reply = co_await call<msg::SnapshotReply>(
        frag.primary(), methods_.snapshot, msg::SnapshotRequest{id});
    if (!reply) {
      outcome = std::move(reply).error();
      break;
    }
    auto part = std::move(reply).value().take_members();
    members.insert(members.end(), part.begin(), part.end());
  }
  if (outcome) {
    outcome = std::move(members);
    // The cut is complete and every fragment is still frozen: this is the
    // instant the snapshot's value is the set's value.
    if (on_cut) on_cut();
  }
  co_await unfreeze_all(id);
  metrics_.record(kMetrics.snapshot_atomic_latency_ns,
                  repo_.sim().now() - start);
  co_return outcome;
}

Task<Result<std::uint64_t>> RepositoryClient::total_size(CollectionId id) {
  // Folded onto the membership read path: one parallel fan-out (delta-cached
  // when enabled) instead of a second, serial per-fragment RPC loop.
  Result<std::vector<ObjectRef>> members = co_await read_all(id);
  if (!members) co_return std::move(members).error();
  co_return static_cast<std::uint64_t>(members.value().size());
}

Task<Result<bool>> RepositoryClient::mutate(CollectionId id, ObjectRef ref,
                                            msg::MembershipRequest::Op op) {
  for (int attempt = 0;; ++attempt) {
    const CollectionMeta& meta = resolve(id);
    if (meta.mode() == ReplicationMode::kOrSet) {
      // Multi-master fragment: any single reachable host commits the write
      // (anti-entropy converges the rest), so try hosts nearest-first and a
      // partition only blocks a client cut off from *every* host — the
      // availability the mode exists to buy (DESIGN.md decision 16).
      const FragmentMeta& frag = meta.fragments()[meta.fragment_of(ref)];
      const Topology& topo = repo_.net().topology();
      std::vector<std::pair<Duration, NodeId>> hosts;
      auto consider = [&](NodeId host) {
        const auto latency = topo.path_latency(node_, host);
        if (latency) hosts.emplace_back(*latency, host);
      };
      consider(frag.primary());
      for (const NodeId replica : frag.replicas()) consider(replica);
      std::sort(hosts.begin(), hosts.end(),
                [](const std::pair<Duration, NodeId>& a,
                   const std::pair<Duration, NodeId>& b) {
                  if (a.first < b.first) return true;
                  if (b.first < a.first) return false;
                  return a.second.raw() < b.second.raw();  // deterministic tie
                });
      if (hosts.empty()) {
        co_return Failure{FailureKind::kPartitioned,
                          "no reachable host for fragment"};
      }
      Failure last{FailureKind::kUnreachable, "no reachable host"};
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        if (i > 0) metrics_.add(kMetrics.orset_write_failovers);
        auto reply = co_await call<msg::MembershipReply>(
            hosts[i].second, methods_.membership,
            msg::MembershipRequest{id, ref, op});
        if (reply) co_return reply.value().changed();
        last = std::move(reply).error();
      }
      co_return last;
    }
    const NodeId primary = meta.fragments()[meta.fragment_of(ref)].primary();
    auto reply = co_await call<msg::MembershipReply>(
        primary, methods_.membership, msg::MembershipRequest{id, ref, op});
    if (reply) co_return reply.value().changed();
    Failure failure = std::move(reply).error();
    if (failure.kind == FailureKind::kWrongEpoch && attempt == 0 &&
        co_await heal_wrong_epoch(id, failure)) {
      continue;  // retry exactly once against the refreshed directory
    }
    co_return failure;
  }
}

Task<Result<bool>> RepositoryClient::add(CollectionId id, ObjectRef ref) {
  return mutate(id, ref, msg::MembershipRequest::Op::kAdd);
}

Task<Result<bool>> RepositoryClient::remove(CollectionId id, ObjectRef ref) {
  return mutate(id, ref, msg::MembershipRequest::Op::kRemove);
}

Task<Result<VersionedValue>> RepositoryClient::fetch(ObjectRef ref) {
  return call<VersionedValue>(ref.home(), methods_.fetch,
                              msg::FetchRequest{ref.id()});
}

Task<std::vector<Result<VersionedValue>>> RepositoryClient::fetch_many(
    std::vector<ObjectRef> refs) {
  // The home nodes in the order they first appear. A call carries few homes
  // (the prefetcher sends one), so a linear scan groups them.
  std::vector<NodeId> homes;
  for (const ObjectRef ref : refs) {
    if (std::find(homes.begin(), homes.end(), ref.home()) == homes.end()) {
      homes.push_back(ref.home());
    }
  }

  // One batched RPC per home node, awaited in turn. Homes are not overlapped
  // here: the prefetcher gives each home its own call, so that one home's
  // elements never wait for another's reply.
  metrics_.add(kMetrics.fetch_manys);
  metrics_.add(kMetrics.fetch_batch_rpcs, homes.size());
  metrics_.record_value(kMetrics.fetch_many_size,
                        static_cast<std::int64_t>(refs.size()));
  // Each ref's home answers or fails it below, so every placeholder is
  // overwritten.
  std::vector<Result<VersionedValue>> out(refs.size(), Failure{});
  for (const NodeId home : homes) {
    std::vector<ObjectId> ids;
    ids.reserve(refs.size());
    for (const ObjectRef ref : refs) {
      if (ref.home() == home) ids.push_back(ref.id());
    }
    [[maybe_unused]] const std::size_t count = ids.size();  // for the assert
    Result<msg::FetchBatchReply> reply = co_await call<msg::FetchBatchReply>(
        home, methods_.fetch_batch, msg::FetchBatchRequest{std::move(ids)});
    if (!reply.has_value()) {
      // Transport failure: every ref homed at this node shares it.
      for (std::size_t i = 0; i < refs.size(); ++i) {
        if (refs[i].home() == home) out[i] = reply.error();
      }
      continue;
    }
    auto results = std::move(reply).value().take_results();
    assert(results.size() == count && "fetch_batch reply shape mismatch");
    for (std::size_t i = 0, j = 0; i < refs.size(); ++i) {
      if (refs[i].home() == home) out[i] = std::move(results[j++]);
    }
    VectorPool<Result<VersionedValue>>::release(std::move(results));
  }
  co_return out;
}

Task<Result<std::uint64_t>> RepositoryClient::put(ObjectRef ref,
                                                  std::string data) {
  return call<std::uint64_t>(ref.home(), methods_.put,
                             msg::PutRequest{ref.id(), std::move(data)});
}

Task<Result<void>> RepositoryClient::freeze_all(CollectionId id) {
  // Canonical (ascending node id) order avoids deadlock between clients
  // freezing the same fragments concurrently.
  const CollectionMeta& meta = resolve(id);
  std::vector<NodeId> primaries;
  primaries.reserve(meta.fragment_count());
  for (const FragmentMeta& frag : meta.fragments()) {
    primaries.push_back(frag.primary());
  }
  std::sort(primaries.begin(), primaries.end());
  for (std::size_t i = 0; i < primaries.size(); ++i) {
    auto reply = co_await call<bool>(primaries[i], methods_.freeze,
                                     msg::FreezeRequest{id, token_, true});
    if (!reply) {
      // Roll back what we already hold, then report the failure.
      for (std::size_t j = 0; j < i; ++j) {
        (void)co_await call<bool>(primaries[j], methods_.freeze,
                                  msg::FreezeRequest{id, token_, false});
      }
      co_return std::move(reply).error();
    }
  }
  co_return Ok();
}

Task<void> RepositoryClient::unfreeze_all(CollectionId id) {
  const CollectionMeta& meta = resolve(id);
  for (const FragmentMeta& frag : meta.fragments()) {
    // Best effort: if this fails, the server-side lease expires the freeze.
    (void)co_await call<bool>(frag.primary(), methods_.freeze,
                              msg::FreezeRequest{id, token_, false});
  }
}

Task<Result<void>> RepositoryClient::pin_all(CollectionId id) {
  const CollectionMeta& meta = resolve(id);
  for (std::size_t f = 0; f < meta.fragment_count(); ++f) {
    const NodeId primary = meta.fragments()[f].primary();
    auto reply = co_await call<bool>(primary, methods_.pin,
                                     msg::PinRequest{id, true});
    if (!reply) {
      // Roll back pins already taken.
      for (std::size_t g = 0; g < f; ++g) {
        (void)co_await call<bool>(meta.fragments()[g].primary(), methods_.pin,
                                  msg::PinRequest{id, false});
      }
      co_return std::move(reply).error();
    }
  }
  co_return Ok();
}

Task<void> RepositoryClient::unpin_all(CollectionId id) {
  const CollectionMeta& meta = resolve(id);
  for (const FragmentMeta& frag : meta.fragments()) {
    (void)co_await call<bool>(frag.primary(), methods_.pin,
                              msg::PinRequest{id, false});
  }
}

}  // namespace weakset
