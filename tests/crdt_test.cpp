// Unit tests for the optimized OR-Set core (src/crdt): dot-context
// compaction, op commutativity/idempotence, add-wins conflict resolution,
// full-state join, and cross-replica convergence under permuted delivery.

#include "crdt/orset.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace weakset::crdt {
namespace {

ObjectRef ref(std::uint64_t id) { return ObjectRef{ObjectId{id}, NodeId{1}}; }

OrSet make_replica(std::uint64_t node) {
  OrSet set{CollectionId{7}};
  set.set_origin(make_origin(node, 1));
  return set;
}

std::vector<DotOp> concat(std::vector<DotOp> a, const std::vector<DotOp>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

TEST(DotContextTest, ContiguousDotsCompactIntoVector) {
  DotContext ctx;
  ctx.add(Dot{5, 1});
  ctx.add(Dot{5, 2});
  ctx.add(Dot{5, 3});
  EXPECT_TRUE(ctx.cloud().empty());
  ASSERT_EQ(ctx.vector().size(), 1u);
  EXPECT_EQ(ctx.vector().at(5), 3u);
  EXPECT_TRUE(ctx.contains(Dot{5, 2}));
  EXPECT_FALSE(ctx.contains(Dot{5, 4}));
}

TEST(DotContextTest, GapsParkInCloudUntilFilled) {
  DotContext ctx;
  ctx.add(Dot{5, 1});
  ctx.add(Dot{5, 3});  // gap at 2
  EXPECT_EQ(ctx.vector().at(5), 1u);
  EXPECT_EQ(ctx.cloud().size(), 1u);
  EXPECT_TRUE(ctx.contains(Dot{5, 3}));
  EXPECT_FALSE(ctx.contains(Dot{5, 2}));
  ctx.add(Dot{5, 2});  // fills the gap: 2 then 3 fold into the vector
  EXPECT_EQ(ctx.vector().at(5), 3u);
  EXPECT_TRUE(ctx.cloud().empty());
}

TEST(DotContextTest, MergeTakesMaxAndCompacts) {
  DotContext a;
  a.add(Dot{1, 1});
  a.add(Dot{2, 2});  // cloud: origin 2 has a gap at 1
  DotContext b;
  b.add(Dot{1, 1});
  b.add(Dot{1, 2});
  b.add(Dot{2, 1});
  a.merge(b);
  EXPECT_EQ(a.vector().at(1), 2u);
  EXPECT_EQ(a.vector().at(2), 2u);  // b's {2,1} unblocked a's parked {2,2}
  EXPECT_TRUE(a.cloud().empty());
}

/// The dot context with a full-cloud compaction after every in-order dot:
/// the straightforward form of Bieniusa et al.'s compaction, kept here as
/// the oracle for DotContext's per-origin fold.
class FullPassContext {
 public:
  [[nodiscard]] bool contains(Dot dot) const {
    const auto it = vv_.find(dot.origin());
    if (it != vv_.end() && dot.counter() <= it->second) return true;
    return cloud_.count(dot) > 0;
  }

  void add(Dot dot) {
    if (contains(dot)) return;
    const auto it = vv_.find(dot.origin());
    if (dot.counter() == (it == vv_.end() ? 0 : it->second) + 1) {
      vv_[dot.origin()] = dot.counter();
      compact();
      return;
    }
    cloud_.insert(dot);
  }

  void merge(const FullPassContext& other) {
    for (const auto& [origin, counter] : other.vv_) {
      auto& mine = vv_[origin];
      if (counter > mine) mine = counter;
    }
    cloud_.insert(other.cloud_.begin(), other.cloud_.end());
    compact();
  }

  [[nodiscard]] const std::map<std::uint64_t, std::uint64_t>& vector()
      const noexcept {
    return vv_;
  }
  [[nodiscard]] const std::set<Dot>& cloud() const noexcept { return cloud_; }

 private:
  void compact() {
    for (auto it = cloud_.begin(); it != cloud_.end();) {
      auto& prefix = vv_[it->origin()];  // counter-0 entry for every origin
      if (it->counter() == prefix + 1) {
        prefix = it->counter();
        it = cloud_.erase(it);
      } else if (it->counter() <= prefix) {
        it = cloud_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::map<std::uint64_t, std::uint64_t> vv_;
  std::set<Dot> cloud_;
};

/// One context under test and its oracle, fed the same dots.
struct ContextPair {
  DotContext actual;
  FullPassContext oracle;

  void add(Dot dot) {
    actual.add(dot);
    oracle.add(dot);
  }
  void merge(const ContextPair& other) {
    actual.merge(other.actual);
    oracle.merge(other.oracle);
  }
};

TEST(DotContextTest, PerOriginFoldMatchesFullPassCompaction) {
  constexpr std::uint64_t kOrigins = 4;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng{seed};
    ContextPair a;
    ContextPair b;
    // Highest counter handed out per origin; a new dot lands anywhere up to
    // three past it, so streams carry gaps, in-order dots and duplicates.
    std::map<std::uint64_t, std::uint64_t> highest;
    for (int step = 0; step < 200; ++step) {
      if (rng.uniform(10) == 0) {
        const bool into_a = rng.bernoulli(0.5);
        (into_a ? a : b).merge(into_a ? b : a);
      } else {
        const std::uint64_t origin = 100 + rng.uniform(kOrigins);
        std::uint64_t& top = highest[origin];
        const std::uint64_t counter = 1 + rng.uniform(top + 3);
        top = std::max(top, counter);
        (rng.uniform(4) == 0 ? b : a).add(Dot{origin, counter});
      }
      // Vector (counter-0 entries included) and cloud both match: the
      // vector's key set is shipped and charged per entry in full-state
      // replies, so a missing zero entry would change simulated time.
      for (const ContextPair* pair : {&a, &b}) {
        ASSERT_EQ(pair->actual.vector(), pair->oracle.vector())
            << "seed " << seed << " step " << step;
        ASSERT_EQ(pair->actual.cloud(), pair->oracle.cloud())
            << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(OrSetTest, AddRemoveLocalSemantics) {
  OrSet set = make_replica(3);
  EXPECT_EQ(set.add(ref(10)).size(), 1u);
  EXPECT_TRUE(set.contains(ref(10)));
  EXPECT_TRUE(set.add(ref(10)).empty());  // duplicate add: no new tag
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.remove(ref(10)).size(), 1u);
  EXPECT_FALSE(set.contains(ref(10)));
  EXPECT_TRUE(set.remove(ref(10)).empty());  // absent remove: no-op
  // Re-add mints a fresh dot; the killed one stays covered.
  EXPECT_EQ(set.add(ref(10)).size(), 1u);
  EXPECT_TRUE(set.contains(ref(10)));
}

TEST(OrSetTest, ApplyIsIdempotent) {
  OrSet a = make_replica(1);
  OrSet b = make_replica(2);
  const auto ops = a.add(ref(1));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_TRUE(b.apply(ops[0]));
  EXPECT_FALSE(b.apply(ops[0]));  // duplicate delivery: no change
  EXPECT_EQ(b.members(), a.members());
}

TEST(OrSetTest, KillBeforeInsertLeavesDotDead) {
  OrSet a = make_replica(1);
  const auto inserts = a.add(ref(1));
  const auto kills = a.remove(ref(1));
  ASSERT_EQ(inserts.size(), 1u);
  ASSERT_EQ(kills.size(), 1u);
  // A replica that sees the kill first must not resurrect the element when
  // the insert finally arrives.
  OrSet b = make_replica(2);
  EXPECT_TRUE(b.apply(kills[0]));  // context-only change, still a change
  EXPECT_FALSE(b.contains(ref(1)));
  EXPECT_FALSE(b.apply(inserts[0]));  // dead on arrival
  EXPECT_FALSE(b.contains(ref(1)));
  EXPECT_EQ(b.members(), a.members());
}

TEST(OrSetTest, ConcurrentAddWinsOverRemove) {
  // a and b both hold x. b removes it; concurrently c adds it with a dot
  // b has never observed. The remove kills only observed dots, so after
  // full exchange x survives everywhere — the OR-Set add-wins resolution.
  OrSet a = make_replica(1);
  OrSet b = make_replica(2);
  OrSet c = make_replica(3);
  const auto add_a = a.add(ref(9));
  b.apply(add_a[0]);
  const auto kills = b.remove(ref(9));
  const auto add_c = c.add(ref(9));
  std::vector<DotOp> all = concat(concat(add_a, kills), add_c);
  for (const auto& op : all) {
    a.apply(op);
    b.apply(op);
    c.apply(op);
  }
  for (OrSet* set : {&a, &b, &c}) {
    EXPECT_TRUE(set->contains(ref(9)));
    EXPECT_EQ(set->size(), 1u);
  }
}

TEST(OrSetTest, ConvergesUnderPermutedDeliveryOrders) {
  // Build one op history across two writers, then deliver it to fresh
  // replicas in several permutations: all must converge byte-identically.
  OrSet w1 = make_replica(1);
  OrSet w2 = make_replica(2);
  std::vector<DotOp> history;
  history = concat(history, w1.add(ref(1)));
  history = concat(history, w1.add(ref(2)));
  history = concat(history, w2.add(ref(3)));
  // Cross-sync so w1 observes w2's dot for 3, then removes it.
  for (const auto& op : history) w1.apply(op);
  history = concat(history, w1.remove(ref(3)));
  history = concat(history, w2.add(ref(4)));
  history = concat(history, w1.remove(ref(1)));

  std::vector<DotOp> order = history;
  std::vector<std::vector<ObjectRef>> outcomes;
  std::sort(order.begin(), order.end(),
            [](const DotOp& x, const DotOp& y) {
              return std::tuple{x.dot(), x.kind()} < std::tuple{y.dot(),
                                                                y.kind()};
            });
  do {
    OrSet replica = make_replica(9);
    for (const auto& op : order) replica.apply(op);
    outcomes.push_back(replica.members());
  } while (std::next_permutation(
      order.begin(), order.end(), [](const DotOp& x, const DotOp& y) {
        return std::tuple{x.dot(), x.kind()} < std::tuple{y.dot(), y.kind()};
      }));
  ASSERT_FALSE(outcomes.empty());
  for (const auto& members : outcomes) {
    EXPECT_EQ(members, outcomes.front());
    EXPECT_EQ(members, (std::vector<ObjectRef>{ref(2), ref(4)}));
  }
}

TEST(OrSetTest, JoinPropagatesRemovalsWithoutTombstones) {
  OrSet a = make_replica(1);
  OrSet b = make_replica(2);
  // b catches up with a via ops, then a removes one element and compacts:
  // the removal reaches b through a full-state join even though no kill op
  // is shipped — b's dot is covered by a's context but absent from a's
  // live set.
  std::vector<DotOp> ops = concat(a.add(ref(1)), a.add(ref(2)));
  for (const auto& op : ops) b.apply(op);
  (void)a.remove(ref(1));
  const auto applied = b.join(a.context(), a.export_live());
  EXPECT_EQ(applied.size(), 1u);  // exactly the kill of 1's dot
  EXPECT_FALSE(b.contains(ref(1)));
  EXPECT_TRUE(b.contains(ref(2)));
  EXPECT_EQ(b.members(), a.members());
}

TEST(OrSetTest, JoinCoversBornAndKilledDots) {
  OrSet a = make_replica(1);
  OrSet b = make_replica(2);
  // a adds then removes x before ever syncing: no op for x reaches b, but
  // after a join b's context must cover x's dot, so a late replay of the
  // insert cannot resurrect it.
  const auto inserts = a.add(ref(5));
  (void)a.remove(ref(5));
  (void)b.join(a.context(), a.export_live());
  EXPECT_FALSE(b.apply(inserts[0]));
  EXPECT_FALSE(b.contains(ref(5)));
}

TEST(OrSetTest, JoinIsIdempotentAndMembersSorted) {
  OrSet a = make_replica(1);
  (void)a.add(ref(3));
  (void)a.add(ref(1));
  (void)a.add(ref(2));
  OrSet b = make_replica(2);
  (void)b.join(a.context(), a.export_live());
  EXPECT_TRUE(b.join(a.context(), a.export_live()).empty());
  const auto members = b.members();
  EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
  EXPECT_EQ(members, a.members());
}

TEST(OrSetTest, FreshOriginAfterAmnesiaNeverReusesDots) {
  OrSet a = make_replica(4);
  const auto before = a.add(ref(1));
  // Amnesia: a forgets everything and comes back on a bumped incarnation.
  OrSet reborn{CollectionId{7}};
  reborn.set_origin(make_origin(4, 2));
  const auto after = reborn.add(ref(2));
  EXPECT_NE(before[0].dot(), after[0].dot());
  EXPECT_NE(before[0].dot().origin(), after[0].dot().origin());
}

}  // namespace
}  // namespace weakset::crdt
