// Unit and integration tests for the object repository substrate: object
// store, collection state and op-log replication, the reachable construct
// (paper Figure 2), the store servers, and the client-side read ladder.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "crdt/orset.hpp"
#include "store/client.hpp"
#include "store/collection.hpp"
#include "store/object_store.hpp"
#include "store/reachable.hpp"
#include "store/repository.hpp"

namespace weakset {
namespace {

TEST(ObjectStoreTest, PutGetRoundTrip) {
  ObjectStore store;
  const ObjectId id{1};
  EXPECT_EQ(store.put(id, "hello"), 1u);
  const auto value = store.get(id);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->data(), "hello");
  EXPECT_EQ(value->version(), 1u);
}

TEST(ObjectStoreTest, OverwriteBumpsVersion) {
  ObjectStore store;
  const ObjectId id{1};
  store.put(id, "v1");
  EXPECT_EQ(store.put(id, "v2"), 2u);
  EXPECT_EQ(store.get(id)->data(), "v2");
}

TEST(ObjectStoreTest, MissingObjectIsNullopt) {
  ObjectStore store;
  EXPECT_FALSE(store.get(ObjectId{9}).has_value());
  EXPECT_FALSE(store.contains(ObjectId{9}));
}

TEST(ObjectStoreTest, EraseRemoves) {
  ObjectStore store;
  const ObjectId id{2};
  store.put(id, "x");
  EXPECT_TRUE(store.erase(id));
  EXPECT_FALSE(store.erase(id));
  EXPECT_EQ(store.size(), 0u);
}

ObjectRef ref(std::uint64_t object, std::uint64_t node = 0) {
  return ObjectRef{ObjectId{object}, NodeId{node}};
}

TEST(CollectionStateTest, AddAndContains) {
  CollectionState state{CollectionId{0}};
  EXPECT_TRUE(state.add(ref(1)));
  EXPECT_TRUE(state.contains(ref(1)));
  EXPECT_EQ(state.size(), 1u);
}

TEST(CollectionStateTest, DuplicateAddIsNoop) {
  CollectionState state{CollectionId{0}};
  EXPECT_TRUE(state.add(ref(1)));
  const auto version = state.version();
  EXPECT_FALSE(state.add(ref(1)));
  EXPECT_EQ(state.version(), version);
  EXPECT_EQ(state.size(), 1u);
}

TEST(CollectionStateTest, RemoveMissingIsNoop) {
  CollectionState state{CollectionId{0}};
  EXPECT_FALSE(state.remove(ref(7)));
  EXPECT_EQ(state.version(), 0u);
}

TEST(CollectionStateTest, RemoveKeepsOthers) {
  CollectionState state{CollectionId{0}};
  for (std::uint64_t i = 0; i < 5; ++i) state.add(ref(i));
  EXPECT_TRUE(state.remove(ref(2)));
  EXPECT_EQ(state.size(), 4u);
  EXPECT_FALSE(state.contains(ref(2)));
  for (const std::uint64_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_TRUE(state.contains(ref(i))) << i;
  }
}

TEST(CollectionStateTest, VersionBumpsOnEffectiveMutation) {
  CollectionState state{CollectionId{0}};
  state.add(ref(1));
  state.add(ref(2));
  state.remove(ref(1));
  EXPECT_EQ(state.version(), 3u);
}

TEST(CollectionStateTest, OpLogIsContiguous) {
  CollectionState state{CollectionId{0}};
  state.add(ref(1));
  state.add(ref(2));
  state.remove(ref(1));
  const auto ops = state.log().since(0);
  ASSERT_EQ(ops.size(), 3u);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].seq(), i + 1);
  }
  EXPECT_EQ(ops[2].kind(), CollectionOp::Kind::kRemove);
  EXPECT_EQ(state.log().since(2).size(), 1u);
  EXPECT_TRUE(state.log().since(3).empty());
}

TEST(CollectionStateTest, ReplicaConvergesViaApply) {
  CollectionState primary{CollectionId{0}};
  CollectionState replica{CollectionId{0}};
  primary.add(ref(1));
  primary.add(ref(2));
  primary.remove(ref(1));
  for (const auto& op : primary.log().since(replica.applied_seq())) {
    replica.apply(op);
  }
  EXPECT_EQ(replica.size(), 1u);
  EXPECT_TRUE(replica.contains(ref(2)));
  EXPECT_EQ(replica.applied_seq(), 3u);
}

TEST(CollectionStateTest, ApplyIsIdempotent) {
  CollectionState primary{CollectionId{0}};
  CollectionState replica{CollectionId{0}};
  primary.add(ref(1));
  const auto ops = primary.log().since(0);
  replica.apply(ops[0]);
  replica.apply(ops[0]);  // duplicate delivery
  EXPECT_EQ(replica.size(), 1u);
  EXPECT_EQ(replica.applied_seq(), 1u);
}

TEST(CollectionStateTest, BoundedLogTruncatesButSeqSurvives) {
  CollectionState state{CollectionId{0}};
  state.set_log_cap(4);
  for (std::uint64_t i = 0; i < 10; ++i) state.add(ref(i));
  EXPECT_EQ(state.last_seq(), 10u);
  EXPECT_EQ(state.log().floor_seq(), 7u);  // ops 7..10 retained
  EXPECT_FALSE(state.log().covers(5));  // op 6 already dropped
  EXPECT_TRUE(state.log().covers(6));
  const auto ops = state.log().since(6);
  ASSERT_EQ(ops.size(), 4u);
  EXPECT_EQ(ops.front().seq(), 7u);
  EXPECT_EQ(ops.back().seq(), 10u);
}

TEST(CollectionStateTest, CapZeroKeepsEverything) {
  CollectionState state{CollectionId{0}};
  for (std::uint64_t i = 0; i < 100; ++i) state.add(ref(i));
  EXPECT_EQ(state.log().floor_seq(), 1u);
  EXPECT_TRUE(state.log().covers(0));
  EXPECT_EQ(state.log().since(0).size(), 100u);
}

TEST(CollectionStateTest, ShrinkingCapTrimsRetroactively) {
  CollectionState state{CollectionId{0}};
  for (std::uint64_t i = 0; i < 8; ++i) state.add(ref(i));
  state.set_log_cap(3);
  EXPECT_EQ(state.log().floor_seq(), 6u);
  EXPECT_EQ(state.log().since(5).size(), 3u);
}

TEST(CollectionStateTest, InstallReplacesStateAndResetsLog) {
  CollectionState replica{CollectionId{0}};
  replica.add(ref(99));  // pre-existing divergent state
  replica.install({ref(1), ref(2), ref(3)}, /*version=*/7, /*seq=*/42);
  EXPECT_EQ(replica.size(), 3u);
  EXPECT_FALSE(replica.contains(ref(99)));
  EXPECT_EQ(replica.version(), 7u);
  EXPECT_EQ(replica.last_seq(), 42u);
  EXPECT_EQ(replica.applied_seq(), 42u);
  // The local log restarts at the install point: readers behind it must
  // take a snapshot, readers at it have nothing to catch up.
  EXPECT_FALSE(replica.log().covers(41));
  EXPECT_TRUE(replica.log().covers(42));
  EXPECT_TRUE(replica.log().since(42).empty());
  // And the log resumes cleanly past the installed sequence.
  EXPECT_TRUE(replica.add(ref(4)));
  EXPECT_EQ(replica.log().since(42).size(), 1u);
  EXPECT_EQ(replica.log().since(42).front().seq(), 43u);
}

TEST(CollectionStateTest, ReplicaRelogsAppliedOpsAndServesDeltas) {
  // A replica that converged via apply() must itself be able to serve the
  // delta-read protocol — its log mirrors the primary's window.
  CollectionState primary{CollectionId{0}};
  CollectionState replica{CollectionId{0}};
  primary.add(ref(1));
  primary.add(ref(2));
  primary.remove(ref(1));
  for (const auto& op : primary.log().since(0)) replica.apply(op);
  EXPECT_EQ(replica.last_seq(), 3u);
  EXPECT_TRUE(replica.log().covers(0));
  EXPECT_EQ(replica.log().since(0), primary.log().since(0));
}

TEST(CollectionStateTest, ReplayPreservesMemberOrder) {
  // Delta-synced clients replay the op stream over a MemberList; the result
  // must be the exact order a full snapshot would ship (swap-with-last
  // removal included), or delta and full reads would yield differently.
  CollectionState primary{CollectionId{0}};
  for (std::uint64_t i = 0; i < 5; ++i) primary.add(ref(i));
  primary.remove(ref(1));  // swap-with-last: 4 moves into slot 1
  MemberList mirror;
  for (const auto& op : primary.log().since(0)) {
    if (op.kind() == CollectionOp::Kind::kAdd) {
      mirror.insert(op.ref());
    } else {
      mirror.erase(op.ref());
    }
  }
  EXPECT_EQ(mirror.members(), primary.members());
  const std::vector<ObjectRef> expected{ref(0), ref(4), ref(2), ref(3)};
  EXPECT_EQ(primary.members(), expected);
}

// ---------------------------------------------------------------------------
// OpLog: the bounded op window behind every membership stream — a
// fragment's CollectionOp log and an OR-Set host's outbound dot-op log.

template <typename Op>
Op op_number(std::uint64_t seq);
template <>
CollectionOp op_number<CollectionOp>(std::uint64_t seq) {
  return CollectionOp{CollectionOp::Kind::kAdd, ref(seq), seq};
}
template <>
crdt::DotOp op_number<crdt::DotOp>(std::uint64_t seq) {
  return crdt::DotOp{crdt::DotOp::Kind::kInsert, ref(seq), crdt::Dot{1, seq}};
}

template <typename Op>
class OpLogTest : public ::testing::Test {
 protected:
  /// Appends the ops numbered last_seq()+1 .. `upto`.
  void append_through(std::uint64_t upto) {
    while (log.last_seq() < upto) log.append(op_number<Op>(log.last_seq() + 1));
  }
  /// The ops numbered first .. last, as since() should return them.
  static std::vector<Op> numbered(std::uint64_t first, std::uint64_t last) {
    std::vector<Op> ops;
    for (std::uint64_t seq = first; seq <= last; ++seq) {
      ops.push_back(op_number<Op>(seq));
    }
    return ops;
  }

  OpLog<Op> log;
};

using OpTypes = ::testing::Types<CollectionOp, crdt::DotOp>;
TYPED_TEST_SUITE(OpLogTest, OpTypes);

TYPED_TEST(OpLogTest, CoversExactlyTheCursorsItCanServe) {
  this->log.set_cap(4);
  this->append_through(10);
  EXPECT_EQ(this->log.last_seq(), 10u);
  EXPECT_EQ(this->log.floor_seq(), 7u);
  // A cursor at floor-1 still gets every op after it; one at last_seq gets
  // nothing, and that is complete too.
  EXPECT_TRUE(this->log.covers(this->log.floor_seq() - 1));
  EXPECT_TRUE(this->log.covers(this->log.last_seq()));
  // At floor-2 the op numbered floor-1 is gone; past last_seq the cursor
  // names ops this stream never had.
  EXPECT_FALSE(this->log.covers(this->log.floor_seq() - 2));
  EXPECT_FALSE(this->log.covers(this->log.last_seq() + 1));
}

TYPED_TEST(OpLogTest, SinceReturnsExactlyTheOpsPastTheCursor) {
  this->log.set_cap(4);
  this->append_through(10);
  EXPECT_EQ(this->log.since(6), this->numbered(7, 10));
  EXPECT_EQ(this->log.since(8), this->numbered(9, 10));
  EXPECT_TRUE(this->log.since(10).empty());
  // The into-buffer form replaces whatever the buffer held.
  std::vector<TypeParam> out = this->numbered(1, 3);
  this->log.since(9, out);
  EXPECT_EQ(out, this->numbered(10, 10));
}

TYPED_TEST(OpLogTest, CapTrimsOnAppendAndOnSetCap) {
  this->log.set_cap(4);
  this->append_through(4);
  EXPECT_EQ(this->log.floor_seq(), 1u);
  this->append_through(5);
  EXPECT_EQ(this->log.floor_seq(), 2u);  // op 1 trimmed by the append
  EXPECT_EQ(this->log.since(1), this->numbered(2, 5));

  this->log.set_cap(0);  // unbounded from here on
  this->append_through(12);
  EXPECT_EQ(this->log.floor_seq(), 2u);
  this->log.set_cap(3);  // trims at once
  EXPECT_EQ(this->log.floor_seq(), 10u);
  EXPECT_FALSE(this->log.covers(8));
  EXPECT_EQ(this->log.since(9), this->numbered(10, 12));
}

TYPED_TEST(OpLogTest, ResetLeavesAnEmptyWindowThatCoversItsSeq) {
  this->log.set_cap(4);
  this->append_through(6);
  this->log.reset(42);
  EXPECT_EQ(this->log.last_seq(), 42u);
  EXPECT_EQ(this->log.floor_seq(), 43u);
  EXPECT_TRUE(this->log.covers(42));
  EXPECT_TRUE(this->log.since(42).empty());
  EXPECT_FALSE(this->log.covers(41));
  EXPECT_FALSE(this->log.covers(43));
  // Numbering resumes past the reset point.
  this->append_through(43);
  EXPECT_EQ(this->log.since(42), this->numbered(43, 43));
}

// ---------------------------------------------------------------------------
// reachable (paper Figure 2)

TEST(ReachableTest, PaperFigure2Scenario) {
  // "If a is on node N and α, β, γ are on nodes A, B, C ... and there is a
  // partition between N and C in state σ then reachable(a)σ = {α, β}."
  Topology topo;
  const NodeId n = topo.add_node("N");
  const NodeId a = topo.add_node("A");
  const NodeId b = topo.add_node("B");
  const NodeId c = topo.add_node("C");
  topo.connect_full_mesh(Duration::millis(1));

  const std::vector<ObjectRef> members{
      ObjectRef{ObjectId{0}, a},   // α
      ObjectRef{ObjectId{1}, b},   // β
      ObjectRef{ObjectId{2}, c}};  // γ

  // No partition: everything reachable.
  EXPECT_EQ(reachable_members(topo, n, members).size(), 3u);

  topo.partition({{n, a, b}, {c}});
  const auto reachable = reachable_members(topo, n, members);
  ASSERT_EQ(reachable.size(), 2u);
  EXPECT_EQ(reachable[0].home(), a);
  EXPECT_EQ(reachable[1].home(), b);
  EXPECT_FALSE(is_reachable(topo, n, members[2]));

  topo.heal();
  EXPECT_EQ(reachable_members(topo, n, members).size(), 3u);
}

TEST(ReachableTest, CrashedHomeIsUnreachable) {
  Topology topo;
  const NodeId client = topo.add_node("client");
  const NodeId home = topo.add_node("home");
  topo.connect(client, home, Duration::millis(1));
  const ObjectRef obj{ObjectId{0}, home};
  EXPECT_TRUE(is_reachable(topo, client, obj));
  topo.crash(home);
  EXPECT_FALSE(is_reachable(topo, client, obj));
}

// ---------------------------------------------------------------------------
// End-to-end repository fixture

class RepositoryTest : public ::testing::Test {
 protected:
  RepositoryTest() {
    client_node = topo.add_node("client");
    for (int i = 0; i < 3; ++i) {
      server_nodes.push_back(topo.add_node("server" + std::to_string(i)));
    }
    topo.connect_full_mesh(Duration::millis(5));
    for (const NodeId node : server_nodes) repo.add_server(node);
  }

  ~RepositoryTest() override {
    repo.stop_all_daemons();
    sim.run();  // drain daemon wakeups so coroutine frames unwind (no leaks)
  }

  Simulator sim;
  Topology topo;
  NodeId client_node;
  std::vector<NodeId> server_nodes;
  RpcNetwork net{sim, topo, Rng{7}};
  Repository repo{net};
};

TEST_F(RepositoryTest, CreateObjectAndFetch) {
  const ObjectRef obj = repo.create_object(server_nodes[0], "menu: dumplings");
  RepositoryClient client{repo, client_node};
  const auto value = run_task(sim, client.fetch(obj));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value.value().data(), "menu: dumplings");
}

TEST_F(RepositoryTest, FetchFromCrashedHomeFails) {
  const ObjectRef obj = repo.create_object(server_nodes[0], "x");
  topo.crash(server_nodes[0]);
  RepositoryClient client{repo, client_node};
  const auto value = run_task(sim, client.fetch(obj));
  ASSERT_FALSE(value.has_value());
  EXPECT_EQ(value.error().kind, FailureKind::kNodeCrashed);
}

TEST_F(RepositoryTest, PutThenFetchSeesNewVersion) {
  const ObjectRef obj = repo.create_object(server_nodes[1], "v1");
  RepositoryClient client{repo, client_node};
  const auto version = run_task(sim, client.put(obj, "v2"));
  ASSERT_TRUE(version.has_value());
  EXPECT_EQ(version.value(), 2u);
  const auto value = run_task(sim, client.fetch(obj));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value.value().data(), "v2");
}

TEST_F(RepositoryTest, AddRemoveAndReadAll) {
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  RepositoryClient client{repo, client_node};
  const ObjectRef o1 = repo.create_object(server_nodes[1], "a");
  const ObjectRef o2 = repo.create_object(server_nodes[2], "b");

  EXPECT_TRUE(run_task(sim, client.add(coll, o1)).value_or(false));
  EXPECT_TRUE(run_task(sim, client.add(coll, o2)).value_or(false));
  EXPECT_FALSE(run_task(sim, client.add(coll, o2)).value_or(true));

  auto members = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), 2u);

  EXPECT_TRUE(run_task(sim, client.remove(coll, o1)).value_or(false));
  members = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(members.has_value());
  ASSERT_EQ(members.value().size(), 1u);
  EXPECT_EQ(members.value()[0], o2);
}

TEST_F(RepositoryTest, FragmentedCollectionSpreadsMembers) {
  const CollectionId coll =
      repo.create_collection({server_nodes[0], server_nodes[1]});
  RepositoryClient client{repo, client_node};
  std::vector<ObjectRef> objs;
  for (int i = 0; i < 16; ++i) {
    objs.push_back(repo.create_object(server_nodes[2], "o"));
    repo.seed_member(coll, objs.back());
  }
  // Both fragments should hold something (hash placement over 16 members).
  const auto* s0 = repo.server_at(server_nodes[0])->collection(coll);
  const auto* s1 = repo.server_at(server_nodes[1])->collection(coll);
  ASSERT_NE(s0, nullptr);
  ASSERT_NE(s1, nullptr);
  EXPECT_GT(s0->size(), 0u);
  EXPECT_GT(s1->size(), 0u);
  EXPECT_EQ(s0->size() + s1->size(), 16u);

  const auto members = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), 16u);
  const auto size = run_task(sim, client.total_size(coll));
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(size.value(), 16u);
}

TEST_F(RepositoryTest, ReadAllFailsWhenAFragmentIsUnreachable) {
  const CollectionId coll =
      repo.create_collection({server_nodes[0], server_nodes[1]});
  repo.seed_member(coll, repo.create_object(server_nodes[2], "x"));
  topo.partition({{client_node, server_nodes[0], server_nodes[2]},
                  {server_nodes[1]}});
  RepositoryClient client{repo, client_node};
  const auto members = run_task(sim, client.read_all(coll));
  ASSERT_FALSE(members.has_value());
  EXPECT_EQ(members.error().kind, FailureKind::kPartitioned);
}

TEST_F(RepositoryTest, ReplicaConvergesOverAntiEntropy) {
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  repo.add_replica(coll, 0, server_nodes[1]);
  RepositoryClient client{repo, client_node};
  const ObjectRef obj = repo.create_object(server_nodes[2], "x");
  ASSERT_TRUE(run_task(sim, client.add(coll, obj)).has_value());

  // Replica is stale immediately after the add...
  const auto* replica = repo.server_at(server_nodes[1])->collection(coll);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->size(), 0u);

  // ...and converges within a few pull intervals.
  sim.run_until(sim.now() + Duration::millis(200));
  EXPECT_EQ(replica->size(), 1u);
  EXPECT_TRUE(replica->contains(obj));
}

TEST_F(RepositoryTest, NearestPolicyReadsReplicaWhenCloser) {
  // Make server 1 a near replica and server 0 a far primary.
  Topology topo2;  // dedicated topology for asymmetric latencies
  const NodeId cl = topo2.add_node("client");
  const NodeId far = topo2.add_node("far-primary");
  const NodeId near = topo2.add_node("near-replica");
  topo2.connect(cl, far, Duration::millis(80));
  topo2.connect(cl, near, Duration::millis(2));
  topo2.connect(far, near, Duration::millis(10));
  Simulator sim2;
  RpcNetwork net2{sim2, topo2, Rng{9}};
  Repository repo2{net2};
  repo2.add_server(far);
  repo2.add_server(near);
  const CollectionId coll = repo2.create_collection({far});
  repo2.add_replica(coll, 0, near);
  repo2.seed_member(coll, ObjectRef{ObjectId{100}, far});

  // Let anti-entropy converge, then read with the nearest policy.
  sim2.run_until(sim2.now() + Duration::millis(500));
  RepositoryClient client{repo2, cl};
  const SimTime start = sim2.now();
  const auto members = run_task(sim2, client.read_all(coll));
  const Duration elapsed = sim2.now() - start;
  repo2.stop_all_daemons();
  sim2.run();  // drain daemon wakeups so coroutine frames unwind
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), 1u);
  // A primary read would cost >= 160ms round trip; the replica read ~4ms.
  EXPECT_LT(elapsed, Duration::millis(40));
}

TEST_F(RepositoryTest, StaleReplicaServesOldMembership) {
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  repo.add_replica(coll, 0, server_nodes[1]);
  const ObjectRef obj = repo.create_object(server_nodes[2], "x");
  repo.seed_member(coll, obj);
  sim.run_until(sim.now() + Duration::millis(200));  // replica has obj

  // Sever exactly the primary-replica pair: with direct-only routing, the
  // client still reaches both, but anti-entropy pulls fail.
  topo.set_routing(Topology::Routing::kDirectOnly);
  topo.set_link_up(server_nodes[0], server_nodes[1], false);

  // Remove the member at the primary.
  RepositoryClient writer{repo, client_node,
                          ClientOptions{{}, ReadPolicy::kPrimaryOnly}};
  ASSERT_TRUE(run_task(sim, writer.remove(coll, obj)).has_value());

  // A primary read sees the removal; the replica still serves the member.
  const auto fresh = run_task(sim, writer.read_all(coll));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_TRUE(fresh.value().empty());

  const auto* replica = repo.server_at(server_nodes[1])->collection(coll);
  sim.run_until(sim.now() + Duration::millis(300));  // pulls keep failing
  EXPECT_EQ(replica->size(), 1u);  // stale: still contains the removed member
}

TEST_F(RepositoryTest, SnapshotAtomicBlocksMutators) {
  const CollectionId coll =
      repo.create_collection({server_nodes[0], server_nodes[1]});
  std::vector<ObjectRef> objs;
  for (int i = 0; i < 8; ++i) {
    objs.push_back(repo.create_object(server_nodes[2], "x"));
    repo.seed_member(coll, objs.back());
  }
  RepositoryClient reader{repo, client_node};
  RepositoryClient mutator{repo, server_nodes[2]};

  // Concurrently: take an atomic snapshot and try to add a member.
  const ObjectRef extra = repo.create_object(server_nodes[2], "new");
  std::optional<std::size_t> snapshot_size;
  bool mutation_done = false;

  sim.spawn([](RepositoryClient& r, CollectionId c,
               std::optional<std::size_t>& out) -> Task<void> {
    const auto snap = co_await r.snapshot_atomic(c);
    if (snap) out = snap.value().size();
  }(reader, coll, snapshot_size));
  sim.spawn([](Simulator& s, RepositoryClient& m, CollectionId c,
               ObjectRef ref, bool& done) -> Task<void> {
    co_await s.delay(Duration::millis(1));  // land mid-snapshot
    (void)co_await m.add(c, ref);
    done = true;
  }(sim, mutator, coll, extra, mutation_done));
  sim.run_until(sim.now() + Duration::seconds(30));

  ASSERT_TRUE(snapshot_size.has_value());
  // The snapshot is a consistent cut: it must not observe a half-applied
  // add, so it sees either all 8 original members or all 9.
  EXPECT_TRUE(*snapshot_size == 8 || *snapshot_size == 9) << *snapshot_size;
  EXPECT_TRUE(mutation_done);
}

TEST_F(RepositoryTest, FreezeLeaseExpiresAfterHolderVanishes) {
  StoreServerOptions opts;
  opts.freeze_lease = Duration::millis(500);
  const NodeId node = topo.add_node("leaseful");
  topo.connect_full_mesh(Duration::millis(5));
  repo.add_server(node, opts);
  const CollectionId coll = repo.create_collection({node});
  RepositoryClient locker{repo, client_node};
  ASSERT_TRUE(run_task(sim, locker.freeze_all(coll)).has_value());

  // The holder "crashes" (never unfreezes). A mutation must eventually pass
  // once the lease expires.
  RepositoryClient mutator{repo, server_nodes[0]};
  const ObjectRef obj = repo.create_object(server_nodes[0], "x");
  const SimTime start = sim.now();
  const auto added = run_task(
      sim, mutator.repo().net().call_typed<msg::MembershipReply>(
               mutator.node(), node, "coll.membership",
               msg::MembershipRequest{coll, obj,
                                      msg::MembershipRequest::Op::kAdd},
               Duration::seconds(5)));
  ASSERT_TRUE(added.has_value());
  EXPECT_TRUE(added.value().changed());
  EXPECT_GE(sim.now() - start, Duration::millis(450));
}

TEST_F(RepositoryTest, DeltaReplyCursorMatchesShippedOps) {
  // Regression: handle_read_delta used to read the reply's cursor *after*
  // the per-op shipping delay. A mutation landing inside that window was
  // then covered by the cursor without being shipped — and because the
  // client's next read asks only for ops after the cursor, the mutation
  // was skipped forever. The cursor must be sliced at the same instant as
  // the ops.
  StoreServerOptions sopts;
  sopts.membership_entry_cost = Duration::millis(100);  // wide race window
  const NodeId host = topo.add_node("slow-shipper");
  topo.connect_full_mesh(Duration::millis(5));
  repo.add_server(host, sopts);
  const CollectionId coll = repo.create_collection({host});

  ClientOptions copts;
  copts.read_policy = ReadPolicy::kPrimaryOnly;
  copts.delta_reads = true;
  RepositoryClient client{repo, client_node, copts};
  RepositoryClient mutator{repo, server_nodes[0]};
  const ObjectRef a = repo.create_object(server_nodes[0], "a");
  const ObjectRef b = repo.create_object(server_nodes[1], "b");
  const ObjectRef c = repo.create_object(server_nodes[2], "c");

  ASSERT_TRUE(run_task(sim, client.add(coll, a)).has_value());
  ASSERT_TRUE(run_task(sim, client.read_all(coll)).has_value());  // prime
  ASSERT_TRUE(run_task(sim, client.add(coll, b)).has_value());

  // The refresh ships one op for ~100ms; the add of c lands mid-shipping.
  std::optional<Result<std::vector<ObjectRef>>> racing;
  sim.spawn([](RepositoryClient& cl, CollectionId id,
               std::optional<Result<std::vector<ObjectRef>>>& out)
                -> Task<void> {
    out = co_await cl.read_all(id);
  }(client, coll, racing));
  sim.spawn([](Simulator& s, RepositoryClient& m, CollectionId id,
               ObjectRef ref) -> Task<void> {
    co_await s.delay(Duration::millis(40));
    (void)co_await m.add(id, ref);
  }(sim, mutator, coll, c));
  sim.run_until(sim.now() + Duration::seconds(5));

  // The racing read legitimately predates c...
  ASSERT_TRUE(racing.has_value());
  ASSERT_TRUE(racing->has_value());
  EXPECT_EQ(racing->value(), (std::vector<ObjectRef>{a, b}));
  // ...but its cursor must not cover c's op: the next refresh ships it.
  const auto members = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value(), (std::vector<ObjectRef>{a, b, c}));
}

TEST_F(RepositoryTest, PullPastThePrimarysLastSeqIsResynced) {
  // coll.pull, coll.read_delta and orset.pull share one window rule
  // (OpLog::covers): a cursor past the stream's last_seq in the same
  // incarnation names ops the stream never had, so it gets the full state.
  // coll.pull used to answer such a cursor with an empty delta. No run
  // reaches this case — a replica's cursor only ever comes from its
  // primary's own stream — so this drives the RPC directly.
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  const ObjectRef a = repo.create_object(server_nodes[0], "a");
  const ObjectRef b = repo.create_object(server_nodes[1], "b");
  RepositoryClient client{repo, client_node};
  ASSERT_TRUE(run_task(sim, client.add(coll, a)).value_or(false));
  ASSERT_TRUE(run_task(sim, client.add(coll, b)).value_or(false));
  const CollectionState* state =
      repo.server_at(server_nodes[0])->collection(coll);
  ASSERT_NE(state, nullptr);
  ASSERT_EQ(state->last_seq(), 2u);

  const auto pull = [&](std::uint64_t since_seq) {
    return run_task(sim, net.call_typed<msg::DeltaReply>(
                             client_node, server_nodes[0], "coll.pull",
                             msg::DeltaRequest{coll, since_seq,
                                               state->incarnation()}));
  };
  const auto caught_up = pull(2);
  ASSERT_TRUE(caught_up.has_value());
  EXPECT_TRUE(caught_up.value().is_delta());
  EXPECT_TRUE(caught_up.value().ops().empty());

  const auto ahead = pull(5);
  ASSERT_TRUE(ahead.has_value());
  EXPECT_FALSE(ahead.value().is_delta());
  EXPECT_EQ(ahead.value().members(), (std::vector<ObjectRef>{a, b}));
  EXPECT_EQ(ahead.value().seq(), 2u);
  EXPECT_EQ(ahead.value().version(), 2u);
}

TEST_F(RepositoryTest, OverlappingReadAllsDoNotReplayAbsorbedOps) {
  // Two reads on one client may overlap (an iterator refresh racing a
  // total_size); both then present the same cursor. Here the first read
  // ships a long delta while the membership shrinks underneath it, so the
  // second resyncs with a (cheap, fast) full snapshot and absorbs first.
  // Absorbing the older delta afterwards must not replay ops the snapshot
  // already covers — that would materialise a membership the host never
  // had, breaking the delta-read == full-read equivalence.
  StoreServerOptions sopts;
  sopts.membership_entry_cost = Duration::millis(10);
  const NodeId host = topo.add_node("churny");
  topo.connect_full_mesh(Duration::millis(5));
  repo.add_server(host, sopts);
  const CollectionId coll = repo.create_collection({host});
  std::vector<ObjectRef> objs;
  for (int i = 0; i < 22; ++i) {
    objs.push_back(repo.create_object(
        server_nodes[static_cast<std::size_t>(i) % 3],
        "o" + std::to_string(i)));
  }
  CollectionState* state = repo.server_at(host)->collection(coll);
  ASSERT_NE(state, nullptr);
  for (int i = 0; i < 12; ++i) {
    repo.seed_member(coll, objs[static_cast<std::size_t>(i)]);
  }

  ClientOptions copts;
  copts.read_policy = ReadPolicy::kPrimaryOnly;
  copts.delta_reads = true;
  RepositoryClient client{repo, client_node, copts};
  ASSERT_TRUE(run_task(sim, client.read_all(coll)).has_value());  // prime

  // Ten primary-side adds: the next delta refresh ships them for ~100ms.
  for (int i = 12; i < 22; ++i) state->add(objs[static_cast<std::size_t>(i)]);
  std::optional<Result<std::vector<ObjectRef>>> slow_read;
  sim.spawn([](RepositoryClient& cl, CollectionId id,
               std::optional<Result<std::vector<ObjectRef>>>& out)
                -> Task<void> {
    out = co_await cl.read_all(id);
  }(client, coll, slow_read));
  // Mid-shipping, 20 members vanish: a fresh read now takes the snapshot
  // path (delta larger than the set) and returns well before the delta.
  sim.schedule(Duration::millis(20), [state, &objs] {
    for (int i = 0; i < 20; ++i) {
      state->remove(objs[static_cast<std::size_t>(i)]);
    }
  });
  std::optional<Result<std::uint64_t>> overlapping_size;
  sim.spawn([](Simulator& s, RepositoryClient& cl, CollectionId id,
               std::optional<Result<std::uint64_t>>& out) -> Task<void> {
    co_await s.delay(Duration::millis(25));
    out = co_await cl.total_size(id);
  }(sim, client, coll, overlapping_size));
  sim.run_until(sim.now() + Duration::seconds(5));

  ASSERT_TRUE(overlapping_size.has_value());
  ASSERT_TRUE(overlapping_size->has_value());
  EXPECT_EQ(overlapping_size->value(), 2u);
  // The delta absorbed last must yield exactly the host's membership, not
  // the snapshot with ten stale adds replayed on top.
  ASSERT_TRUE(slow_read.has_value());
  ASSERT_TRUE(slow_read->has_value());
  EXPECT_EQ(slow_read->value(), state->members());
  const auto members = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value(), state->members());
}

TEST_F(RepositoryTest, ReplicaRejectsMutations) {
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  repo.add_replica(coll, 0, server_nodes[1]);
  RepositoryClient client{repo, client_node};
  const auto reply = run_task(
      sim, net.call_typed<msg::MembershipReply>(
               client_node, server_nodes[1], "coll.membership",
               msg::MembershipRequest{coll, ref(55, server_nodes[2].raw()),
                                      msg::MembershipRequest::Op::kAdd}));
  ASSERT_FALSE(reply.has_value());
  EXPECT_EQ(reply.error().kind, FailureKind::kNotFound);
}

}  // namespace
}  // namespace weakset
