// Differential tests of the spec layer's flat ground truth: RefSet against
// std::set on random inputs, and RepoGroundTruth::observe() plus the trace
// recorder's reachable(s_first) sets against a std::set oracle kept here.
// The worlds are seeded: home-primary and OR-Set collections whose hosts
// hold overlapping members (the same ref at several hosts, and at replicas
// that are not part of the value), observed under cut links, multi-hop and
// direct-only routing, and crashed homes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "spec/observation.hpp"
#include "spec/repo_truth.hpp"
#include "spec/trace.hpp"
#include "store/reachable.hpp"
#include "store/repository.hpp"
#include "util/rng.hpp"

namespace weakset::spec {
namespace {

std::vector<ObjectRef> as_vector(const RefSet& refs) {
  return {refs.begin(), refs.end()};
}

std::vector<ObjectRef> as_vector(const std::set<ObjectRef>& refs) {
  return {refs.begin(), refs.end()};
}

// ---------------------------------------------------------------------------
// RefSet against std::set

std::vector<ObjectRef> random_refs(Rng& rng, std::size_t max_size) {
  std::vector<ObjectRef> out(rng.uniform(max_size + 1));
  for (ObjectRef& ref : out) {
    // A small universe: duplicates and shared members are the common case.
    ref = ObjectRef{ObjectId{1 + rng.uniform(12)}, NodeId{rng.uniform(3)}};
  }
  return out;
}

TEST(RefSetTest, MatchesStdSetOnRandomInputs) {
  Rng rng{2024};
  std::size_t checks = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::vector<ObjectRef> raw_a = random_refs(rng, 20);
    const std::vector<ObjectRef> raw_b = random_refs(rng, 20);
    const std::set<ObjectRef> set_a{raw_a.begin(), raw_a.end()};
    const std::set<ObjectRef> set_b{raw_b.begin(), raw_b.end()};
    const RefSet a = RefSet::from_unsorted(raw_a);
    const RefSet b = RefSet::from_unsorted(raw_b);

    ASSERT_EQ(as_vector(a), as_vector(set_a)) << "round " << round;
    ASSERT_EQ(RefSet{set_a}, a) << "round " << round;
    EXPECT_EQ(a.size(), set_a.size());
    EXPECT_EQ(a.empty(), set_a.empty());
    for (const ObjectRef probe : random_refs(rng, 8)) {
      EXPECT_EQ(a.contains(probe), set_a.count(probe) > 0);
      ++checks;
    }
    const bool set_subset = std::includes(set_b.begin(), set_b.end(),
                                          set_a.begin(), set_a.end());
    EXPECT_EQ(subset(a, b), set_subset) << "round " << round;
    EXPECT_EQ(subset(a, set_b), set_subset) << "round " << round;
    EXPECT_EQ(subset(set_a, b), set_subset) << "round " << round;
    EXPECT_EQ(a == b, set_a == set_b) << "round " << round;
    EXPECT_EQ(same_members(a, set_b), set_a == set_b) << "round " << round;
    // A subset of itself and of a superset: the random pairs rarely nest.
    std::set<ObjectRef> superset = set_a;
    superset.insert(set_b.begin(), set_b.end());
    EXPECT_TRUE(subset(a, a));
    EXPECT_TRUE(subset(a, RefSet{superset}));
    checks += 8;
  }
  EXPECT_GT(checks, 20000u);
}

// ---------------------------------------------------------------------------
// RepoGroundTruth and TraceRecorder against a std::set oracle

constexpr std::size_t kHosts = 5;
constexpr std::size_t kObjects = 30;

/// One seeded world: a client and kHosts store servers, a two-fragment
/// home-primary collection with a replica per fragment, and a two-fragment
/// OR-Set collection with three hosts on fragment 0 and two on fragment 1.
class World {
 public:
  explicit World(std::uint64_t seed)
      : rng_(seed), net_{sim_, topo_, Rng{seed}} {
    client_ = topo_.add_node("client");
    for (std::size_t i = 0; i < kHosts; ++i) {
      hosts_.push_back(topo_.add_node("host" + std::to_string(i)));
    }
    topo_.connect_full_mesh(Duration::millis(5));
    if (rng_.bernoulli(0.5)) {
      topo_.set_routing(Topology::Routing::kDirectOnly);
    }
    for (const NodeId node : hosts_) repo_.add_server(node);
    for (std::size_t i = 0; i < kObjects; ++i) {
      objects_.push_back(
          repo_.create_object(hosts_[rng_.uniform(kHosts)], "x"));
    }
    home_ = repo_.create_collection({hosts_[0], hosts_[1]});
    repo_.add_replica(home_, 0, hosts_[2]);
    repo_.add_replica(home_, 1, hosts_[3]);
    orset_ = repo_.create_collection({hosts_[0], hosts_[2]},
                                     ReplicationMode::kOrSet);
    repo_.add_replica(orset_, 0, hosts_[1]);
    repo_.add_replica(orset_, 0, hosts_[3]);
    repo_.add_replica(orset_, 1, hosts_[4]);
    for (int i = 0; i < 25; ++i) add_members();
  }

  ~World() {
    repo_.stop_all_daemons();
    sim_.run();  // unwind the anti-entropy daemons
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] Repository& repo() { return repo_; }
  [[nodiscard]] NodeId client() const { return client_; }
  [[nodiscard]] CollectionId home() const { return home_; }
  [[nodiscard]] CollectionId orset() const { return orset_; }

  /// Adds a few members straight into host states, bypassing RPC: the same
  /// ref lands at several hosts (both home-primary fragments' primaries, or
  /// several OR-Set hosts), and home-primary replicas get refs of their own,
  /// which are derived-cache state and not part of the set's value.
  void add_members() {
    const ObjectRef ref = objects_[rng_.uniform(kObjects)];
    switch (rng_.uniform(3)) {
      case 0: {
        const NodeId host = hosts_[rng_.uniform(2)];  // a fragment primary
        repo_.server_at(host)->collection(home_)->add(ref);
        if (rng_.bernoulli(0.3)) {
          repo_.server_at(hosts_[0])->collection(home_)->add(ref);
          repo_.server_at(hosts_[1])->collection(home_)->add(ref);
        }
        break;
      }
      case 1: {
        const NodeId replica = hosts_[2 + rng_.uniform(2)];
        repo_.server_at(replica)->collection(home_)->add(ref);
        break;
      }
      default: {
        const std::vector<NodeId> orset_hosts{hosts_[0], hosts_[1], hosts_[2],
                                              hosts_[3], hosts_[4]};
        for (const NodeId host : orset_hosts) {
          if (rng_.bernoulli(0.5)) {
            repo_.server_at(host)->seed_orset_member(orset_, ref);
          }
        }
        break;
      }
    }
  }

  /// One random failure or repair: cut or restore a link, crash or
  /// restart a host, or heal every link.
  void perturb() {
    const NodeId a =
        rng_.bernoulli(0.3) ? client_ : hosts_[rng_.uniform(kHosts)];
    const NodeId b = hosts_[rng_.uniform(kHosts)];
    switch (rng_.uniform(5)) {
      case 0:
      case 1:
        if (a != b) topo_.set_link_up(a, b, false);
        break;
      case 2:
        topo_.crash(b);
        break;
      case 3:
        topo_.restart(b);
        break;
      default:
        if (a != b) topo_.set_link_up(a, b, true);
        if (rng_.bernoulli(0.2)) topo_.heal();
        break;
    }
  }

  /// The oracle's s_σ: every member of every authoritative host (fragment
  /// primaries under home-primary, all hosts under OR-Set), as a std::set.
  [[nodiscard]] std::set<ObjectRef> oracle_members(CollectionId id) {
    std::set<ObjectRef> out;
    const CollectionMeta& meta = repo_.meta(id);
    const bool orset = meta.mode() == ReplicationMode::kOrSet;
    for (const FragmentMeta& frag : meta.fragments()) {
      std::vector<NodeId> hosts{frag.primary()};
      if (orset) {
        hosts.insert(hosts.end(), frag.replicas().begin(),
                     frag.replicas().end());
      }
      for (const NodeId host : hosts) {
        StoreServer* server = repo_.server_at(host);
        if (orset) {
          for (const ObjectRef ref : server->orset_state(id)->members()) {
            out.insert(ref);
          }
        } else {
          for (const ObjectRef ref : server->collection(id)->members()) {
            out.insert(ref);
          }
        }
      }
    }
    return out;
  }

  /// Members summed over every OR-Set host: above the union's size iff
  /// some member is held by more than one host.
  [[nodiscard]] std::size_t orset_members_held() {
    std::size_t held = 0;
    for (const NodeId host : hosts_) {
      held += repo_.server_at(host)->orset_state(orset_)->size();
    }
    return held;
  }

  /// The members of `refs` the client can reach right now.
  [[nodiscard]] std::set<ObjectRef> oracle_reachable(
      const std::set<ObjectRef>& refs) const {
    std::set<ObjectRef> out;
    for (const ObjectRef ref : refs) {
      if (is_reachable(topo_, client_, ref)) out.insert(ref);
    }
    return out;
  }

 private:
  Rng rng_;
  Simulator sim_;
  Topology topo_;
  RpcNetwork net_;
  Repository repo_{net_};
  NodeId client_;
  std::vector<NodeId> hosts_;
  std::vector<ObjectRef> objects_;
  CollectionId home_;
  CollectionId orset_;
};

/// What the oracle expects of one invocation record.
struct ExpectedInvocation {
  std::set<ObjectRef> pre_members;
  std::set<ObjectRef> pre_reachable;
  std::set<ObjectRef> pre_reachable_of_first;
  std::set<ObjectRef> post_members;
  std::set<ObjectRef> post_reachable;
  std::set<ObjectRef> post_reachable_of_first;
};

TEST(GroundTruthTest, FlatObservationsMatchStdSetOracle) {
  std::size_t observations = 0;
  std::size_t overlapping = 0;  // observations where hosts shared a member
  std::size_t partial = 0;      // observations with an unreachable member
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    World world{seed};
    for (const CollectionId coll : {world.home(), world.orset()}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " collection " +
                   std::to_string(coll.raw()));
      const RepoGroundTruth truth{world.repo(), coll, world.client()};
      const auto check = [&](const SetObservation& got,
                             const std::set<ObjectRef>& members,
                             const std::set<ObjectRef>& reachable) {
        ASSERT_EQ(as_vector(got.members()), as_vector(members));
        ASSERT_EQ(as_vector(got.reachable()), as_vector(reachable));
        ++observations;
        if (reachable.size() < members.size()) ++partial;
      };

      TraceRecorder recorder{truth};
      recorder.begin();
      const std::set<ObjectRef> first = world.oracle_members(coll);
      check(recorder.first(), first, world.oracle_reachable(first));

      std::vector<ExpectedInvocation> expected;
      for (int step = 0; step < 12; ++step) {
        ExpectedInvocation want;
        world.perturb();
        world.add_members();
        want.pre_members = world.oracle_members(coll);
        want.pre_reachable = world.oracle_reachable(want.pre_members);
        want.pre_reachable_of_first = world.oracle_reachable(first);
        check(truth.observe(), want.pre_members, want.pre_reachable);
        recorder.observe_pre();

        world.perturb();
        world.add_members();
        want.post_members = world.oracle_members(coll);
        want.post_reachable = world.oracle_reachable(want.post_members);
        want.post_reachable_of_first = world.oracle_reachable(first);
        recorder.record(StepOutcome::kSuspended, std::nullopt);
        expected.push_back(std::move(want));
      }

      const IterationTrace trace = recorder.finish();
      ASSERT_EQ(trace.invocations().size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        SCOPED_TRACE("invocation " + std::to_string(i));
        const InvocationRecord& inv = trace.invocations()[i];
        const ExpectedInvocation& want = expected[i];
        check(inv.pre(), want.pre_members, want.pre_reachable);
        check(inv.post(), want.post_members, want.post_reachable);
        ASSERT_EQ(as_vector(inv.pre_reachable_of_first()),
                  as_vector(want.pre_reachable_of_first));
        ASSERT_EQ(as_vector(inv.post_reachable_of_first()),
                  as_vector(want.post_reachable_of_first));
      }
    }
    // Overlap is a property of the hosts' states: count it once per world.
    if (world.orset_members_held() >
        world.oracle_members(world.orset()).size()) {
      ++overlapping;
    }
  }
  // The worlds exercise what the dedup and the filter exist for.
  EXPECT_GT(overlapping, 50u);
  EXPECT_GT(partial, observations / 4);
  EXPECT_GT(observations, 2500u);
}

}  // namespace
}  // namespace weakset::spec
