// Direct unit tests of the specification layer: observations, traces,
// timelines, the five figure checkers against hand-crafted runs (both
// conforming and deliberately violating), constraints, and classification.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "spec/specs.hpp"
#include "spec/timeline.hpp"
#include "spec/trace.hpp"
#include "util/rng.hpp"

namespace weakset::spec {
namespace {

ObjectRef ref(std::uint64_t id) { return ObjectRef{ObjectId{id}, NodeId{0}}; }

std::set<ObjectRef> refs(std::initializer_list<std::uint64_t> ids) {
  std::set<ObjectRef> out;
  for (const auto id : ids) out.insert(ref(id));
  return out;
}

SimTime at_ms(int ms) { return SimTime::zero() + Duration::millis(ms); }

/// Builds hand-crafted traces invocation by invocation.
class TraceBuilder {
 public:
  explicit TraceBuilder(std::set<ObjectRef> s_first,
                        std::set<ObjectRef> reachable_first = {})
      : first_(s_first, reachable_first.empty() ? s_first : reachable_first) {
  }

  /// Adds an invocation whose pre and post states are identical.
  TraceBuilder& step(int t_ms, std::set<ObjectRef> members,
                     std::set<ObjectRef> reachable, StepOutcome outcome,
                     std::optional<ObjectRef> element = {}) {
    // reachable(s_first) in this state: first members whose homes are
    // reachable — approximated as first ∩ reachable for these tests.
    std::set<ObjectRef> reach_of_first;
    for (const ObjectRef r : first_.members()) {
      if (reachable.count(r) > 0) reach_of_first.insert(r);
    }
    SetObservation obs{members, reachable};
    invocations_.emplace_back(at_ms(t_ms), obs, reach_of_first,
                              at_ms(t_ms + 1), obs, reach_of_first, outcome,
                              element);
    return *this;
  }

  /// Common case: fully-reachable identical pre/post state.
  TraceBuilder& yield(int t_ms, std::set<ObjectRef> members, ObjectRef e) {
    return step(t_ms, members, members, StepOutcome::kSuspended, e);
  }
  TraceBuilder& ret(int t_ms, std::set<ObjectRef> members) {
    return step(t_ms, members, members, StepOutcome::kReturned);
  }

  IterationTrace build() const {
    return IterationTrace{at_ms(0), first_, invocations_};
  }

 private:
  SetObservation first_;
  std::vector<InvocationRecord> invocations_;
};

// ---------------------------------------------------------------------------
// SetObservation / IterationTrace basics

TEST(SetObservationTest, ContainsAndReach) {
  SetObservation obs{refs({1, 2, 3}), refs({1, 2})};
  EXPECT_TRUE(obs.contains(ref(3)));
  EXPECT_FALSE(obs.can_reach(ref(3)));
  EXPECT_TRUE(obs.can_reach(ref(1)));
  EXPECT_FALSE(obs.contains(ref(9)));
}

TEST(IterationTraceTest, YieldSequenceAndFinalOutcome) {
  const auto trace = TraceBuilder{refs({1, 2})}
                         .yield(10, refs({1, 2}), ref(1))
                         .yield(20, refs({1, 2}), ref(2))
                         .ret(30, refs({1, 2}))
                         .build();
  EXPECT_EQ(trace.yield_sequence(),
            (std::vector<ObjectRef>{ref(1), ref(2)}));
  EXPECT_EQ(trace.final_outcome(), StepOutcome::kReturned);
  EXPECT_EQ(trace.first_time(), at_ms(0));
  EXPECT_EQ(trace.last_time(), at_ms(31));
}

TEST(IterationTraceTest, EmptyTrace) {
  const IterationTrace trace;
  EXPECT_FALSE(trace.started());
  EXPECT_FALSE(trace.final_outcome().has_value());
}

// ---------------------------------------------------------------------------
// MembershipTimeline

TEST(TimelineTest, ValueAtReplaysHistory) {
  MembershipTimeline timeline;
  timeline.set_initial(refs({1, 2}));
  timeline.record(at_ms(10), CollectionOp::Kind::kAdd, ref(3));
  timeline.record(at_ms(20), CollectionOp::Kind::kRemove, ref(1));
  EXPECT_EQ(timeline.value_at(at_ms(0)), refs({1, 2}));
  EXPECT_EQ(timeline.value_at(at_ms(10)), refs({1, 2, 3}));
  EXPECT_EQ(timeline.value_at(at_ms(15)), refs({1, 2, 3}));
  EXPECT_EQ(timeline.value_at(at_ms(25)), refs({2, 3}));
}

TEST(TimelineTest, PresentInWindow) {
  MembershipTimeline timeline;
  timeline.set_initial(refs({1}));
  timeline.record(at_ms(10), CollectionOp::Kind::kRemove, ref(1));
  timeline.record(at_ms(20), CollectionOp::Kind::kAdd, ref(2));
  timeline.record(at_ms(30), CollectionOp::Kind::kRemove, ref(2));

  // ref(1): present at window start.
  EXPECT_TRUE(timeline.present_in_window(ref(1), at_ms(0), at_ms(50)));
  // ref(1) after its removal: not present.
  EXPECT_FALSE(timeline.present_in_window(ref(1), at_ms(15), at_ms(50)));
  // ref(2): added-then-removed inside the window still counts.
  EXPECT_TRUE(timeline.present_in_window(ref(2), at_ms(0), at_ms(50)));
  EXPECT_TRUE(timeline.present_in_window(ref(2), at_ms(15), at_ms(25)));
  // ref(2) before its add.
  EXPECT_FALSE(timeline.present_in_window(ref(2), at_ms(0), at_ms(15)));
  // never a member
  EXPECT_FALSE(timeline.present_in_window(ref(9), at_ms(0), at_ms(50)));
}

TEST(TimelineTest, WindowConstraints) {
  MembershipTimeline timeline;
  timeline.set_initial(refs({1}));
  timeline.record(at_ms(10), CollectionOp::Kind::kAdd, ref(2));
  timeline.record(at_ms(30), CollectionOp::Kind::kRemove, ref(1));

  EXPECT_TRUE(timeline.unchanged_in_window(at_ms(11), at_ms(29)));
  EXPECT_FALSE(timeline.unchanged_in_window(at_ms(0), at_ms(15)));
  EXPECT_TRUE(timeline.grow_only_in_window(at_ms(0), at_ms(29)));
  EXPECT_FALSE(timeline.grow_only_in_window(at_ms(0), at_ms(31)));
  EXPECT_EQ(timeline.mutations_in_window(at_ms(0), at_ms(50)), 2u);
  // Boundary semantics: (t0, t1] — an event at exactly t0 is outside.
  EXPECT_TRUE(timeline.unchanged_in_window(at_ms(10), at_ms(29)));
}

// The window queries by their definitions: membership at t0 by replaying
// the history from time zero, the rest by scanning every event.
bool present_by_replay(const MembershipTimeline& timeline, ObjectRef e,
                       SimTime t0, SimTime t1) {
  if (timeline.value_at(t0).count(e) > 0) return true;
  for (const TimelineEvent& event : timeline.events()) {
    if (event.at() > t0 && event.at() <= t1 && event.ref() == e &&
        event.kind() == CollectionOp::Kind::kAdd) {
      return true;
    }
  }
  return false;
}

std::size_t mutations_by_scan(const MembershipTimeline& timeline, SimTime t0,
                              SimTime t1, bool removes_only) {
  std::size_t count = 0;
  for (const TimelineEvent& event : timeline.events()) {
    const bool counted =
        !removes_only || event.kind() == CollectionOp::Kind::kRemove;
    if (event.at() > t0 && event.at() <= t1 && counted) ++count;
  }
  return count;
}

TEST(TimelineTest, IndexedQueriesMatchReplayAndScan) {
  // Refs 0-5 are mutated; 6 and 7 appear only in some initial values; 8
  // and 9 never occur at all.
  constexpr std::uint64_t kMutated = 6;
  constexpr std::uint64_t kQueried = 10;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng{seed};
    MembershipTimeline timeline;
    std::set<ObjectRef> initial;
    for (std::uint64_t id = 0; id < 8; ++id) {
      if (rng.bernoulli(0.4)) initial.insert(ref(id));
    }
    timeline.set_initial(initial);
    // Events land on a few instants, several per instant; kinds are drawn
    // blind, so removes of non-members and adds of members occur too.
    int now_ms = 0;
    const std::uint64_t events = rng.uniform(40);
    for (std::uint64_t i = 0; i < events; ++i) {
      if (rng.bernoulli(0.6)) now_ms += 1 + static_cast<int>(rng.uniform(3));
      auto kind = CollectionOp::Kind::kAdd;
      if (rng.bernoulli(0.5)) kind = CollectionOp::Kind::kRemove;
      timeline.record(at_ms(now_ms), kind, ref(rng.uniform(kMutated)));
    }
    for (int window = 0; window < 40; ++window) {
      // Windows start and end on event instants and between them, before
      // the first and after the last, and are sometimes inverted.
      const auto horizon = static_cast<std::uint64_t>(now_ms + 3);
      const SimTime t0 = at_ms(static_cast<int>(rng.uniform(horizon)) - 1);
      const SimTime t1 = at_ms(static_cast<int>(rng.uniform(horizon)) - 1);
      const std::size_t mutations = mutations_by_scan(timeline, t0, t1, false);
      EXPECT_EQ(timeline.mutations_in_window(t0, t1), mutations);
      EXPECT_EQ(timeline.unchanged_in_window(t0, t1), mutations == 0);
      EXPECT_EQ(timeline.grow_only_in_window(t0, t1),
                mutations_by_scan(timeline, t0, t1, true) == 0);
      for (std::uint64_t id = 0; id < kQueried; ++id) {
        EXPECT_EQ(timeline.present_in_window(ref(id), t0, t1),
                  present_by_replay(timeline, ref(id), t0, t1))
            << "seed " << seed << " window " << window << " ref " << id;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Figure 1 checker

TEST(CheckFig1Test, AcceptsPerfectRun) {
  const auto trace = TraceBuilder{refs({1, 2})}
                         .yield(10, refs({1, 2}), ref(1))
                         .yield(20, refs({1, 2}), ref(2))
                         .ret(30, refs({1, 2}))
                         .build();
  EXPECT_TRUE(check_fig1(trace).satisfied());
}

TEST(CheckFig1Test, RejectsDuplicateYield) {
  const auto trace = TraceBuilder{refs({1, 2})}
                         .yield(10, refs({1, 2}), ref(1))
                         .yield(20, refs({1, 2}), ref(1))
                         .build();
  const auto report = check_fig1(trace);
  EXPECT_FALSE(report.satisfied());
  EXPECT_NE(report.violations().front().find("duplicate"), std::string::npos);
}

TEST(CheckFig1Test, RejectsForeignElement) {
  const auto trace = TraceBuilder{refs({1, 2})}
                         .yield(10, refs({1, 2}), ref(7))
                         .build();
  EXPECT_FALSE(check_fig1(trace).satisfied());
}

TEST(CheckFig1Test, RejectsEarlyReturn) {
  const auto trace = TraceBuilder{refs({1, 2})}
                         .yield(10, refs({1, 2}), ref(1))
                         .ret(20, refs({1, 2}))
                         .build();
  const auto report = check_fig1(trace);
  EXPECT_FALSE(report.satisfied());
  EXPECT_EQ(report.violation_count(), 1u);
}

TEST(CheckFig1Test, RejectsAnyFailure) {
  const auto trace =
      TraceBuilder{refs({1})}
          .step(10, refs({1}), refs({1}), StepOutcome::kFailed)
          .build();
  EXPECT_FALSE(check_fig1(trace).satisfied());
}

TEST(CheckFig1Test, AcceptsEmptySetImmediateReturn) {
  const auto trace = TraceBuilder{refs({})}.ret(10, refs({})).build();
  EXPECT_TRUE(check_fig1(trace).satisfied());
}

// ---------------------------------------------------------------------------
// Figures 3/4 checker

TEST(CheckFig3Test, AcceptsYieldReachableThenFail) {
  // s_first = {1,2,3}; 3 unreachable throughout.
  TraceBuilder builder{refs({1, 2, 3}), refs({1, 2})};
  builder.step(10, refs({1, 2, 3}), refs({1, 2}), StepOutcome::kSuspended,
               ref(1));
  builder.step(20, refs({1, 2, 3}), refs({1, 2}), StepOutcome::kSuspended,
               ref(2));
  builder.step(30, refs({1, 2, 3}), refs({1, 2}), StepOutcome::kFailed);
  EXPECT_TRUE(check_fig3(builder.build()).satisfied());
}

TEST(CheckFig3Test, RejectsYieldOfUnreachableElement) {
  TraceBuilder builder{refs({1, 2}), refs({1})};
  builder.step(10, refs({1, 2}), refs({1}), StepOutcome::kSuspended, ref(2));
  const auto report = check_fig3(builder.build());
  EXPECT_FALSE(report.satisfied());
  EXPECT_NE(report.violations().front().find("unreachable"),
            std::string::npos);
}

TEST(CheckFig3Test, RejectsPrematureFailure) {
  // Fails while reachable unyielded elements remain.
  TraceBuilder builder{refs({1, 2}), refs({1, 2})};
  builder.step(10, refs({1, 2}), refs({1, 2}), StepOutcome::kSuspended,
               ref(1));
  builder.step(20, refs({1, 2}), refs({1, 2}), StepOutcome::kFailed);
  EXPECT_FALSE(check_fig3(builder.build()).satisfied());
}

TEST(CheckFig3Test, RejectsFailureAfterFullYield) {
  TraceBuilder builder{refs({1}), refs({1})};
  builder.step(10, refs({1}), refs({1}), StepOutcome::kSuspended, ref(1));
  builder.step(20, refs({1}), refs({1}), StepOutcome::kFailed);
  EXPECT_FALSE(check_fig3(builder.build()).satisfied());
}

TEST(CheckFig4Test, AcceptsSnapshotRunThatIgnoresMutations) {
  // Set mutates (element 9 appears) but the iterator works off s_first.
  TraceBuilder builder{refs({1, 2})};
  builder.yield(10, refs({1, 2}), ref(1));
  builder.yield(20, refs({1, 2, 9}), ref(2));  // 9 added mid-run: ignored
  builder.ret(30, refs({1, 2, 9}));
  EXPECT_TRUE(check_fig4(builder.build()).satisfied());
}

// ---------------------------------------------------------------------------
// Figure 5 checker

TEST(CheckFig5Test, AcceptsGrowthPickup) {
  TraceBuilder builder{refs({1})};
  builder.yield(10, refs({1}), ref(1));
  builder.yield(20, refs({1, 2}), ref(2));  // growth seen via s_pre
  builder.ret(30, refs({1, 2}));
  EXPECT_TRUE(check_fig5(builder.build()).satisfied());
}

TEST(CheckFig5Test, RejectsReturnWithUnyieldedCurrentMembers) {
  TraceBuilder builder{refs({1})};
  builder.yield(10, refs({1}), ref(1));
  builder.ret(20, refs({1, 2}));  // 2 is in s_pre but never yielded
  EXPECT_FALSE(check_fig5(builder.build()).satisfied());
}

TEST(CheckFig5Test, RejectsYieldedElementVanishing) {
  // After yielding 1, the set shrinks below the yielded set: yielded ⊄ s_pre.
  TraceBuilder builder{refs({1, 2})};
  builder.yield(10, refs({1, 2}), ref(1));
  builder.yield(20, refs({2}), ref(2));  // 1 was removed: violates Fig 5
  const auto report = check_fig5(builder.build());
  EXPECT_FALSE(report.satisfied());
}

TEST(CheckFig5Test, AcceptsJustifiedFailure) {
  TraceBuilder builder{refs({1, 2}), refs({1})};
  builder.step(10, refs({1, 2}), refs({1}), StepOutcome::kSuspended, ref(1));
  builder.step(20, refs({1, 2}), refs({1}), StepOutcome::kFailed);
  EXPECT_TRUE(check_fig5(builder.build()).satisfied());
}

TEST(CheckFig5Test, RejectsBlockedInvocation) {
  TraceBuilder builder{refs({1})};
  builder.step(10, refs({1}), refs({1}), StepOutcome::kBlocked);
  EXPECT_FALSE(check_fig5(builder.build()).satisfied());
}

// ---------------------------------------------------------------------------
// Figure 6 checker

MembershipTimeline static_timeline(std::set<ObjectRef> members) {
  MembershipTimeline timeline;
  timeline.set_initial(std::move(members));
  return timeline;
}

TEST(CheckFig6Test, AcceptsChurnyRun) {
  MembershipTimeline timeline;
  timeline.set_initial(refs({1, 2}));
  timeline.record(at_ms(15), CollectionOp::Kind::kAdd, ref(3));
  timeline.record(at_ms(25), CollectionOp::Kind::kRemove, ref(2));

  TraceBuilder builder{refs({1, 2})};
  builder.yield(10, refs({1, 2}), ref(1));
  builder.yield(20, refs({1, 2, 3}), ref(2));
  builder.yield(30, refs({1, 3}), ref(3));
  builder.ret(40, refs({1, 3}));
  EXPECT_TRUE(check_fig6(builder.build(), timeline).satisfied());
}

TEST(CheckFig6Test, AcceptsBlockedOutcome) {
  TraceBuilder builder{refs({1, 2}), refs({1})};
  builder.step(10, refs({1, 2}), refs({1}), StepOutcome::kSuspended, ref(1));
  builder.step(20, refs({1, 2}), refs({1}), StepOutcome::kBlocked);
  EXPECT_TRUE(
      check_fig6(builder.build(), static_timeline(refs({1, 2}))).satisfied());
}

TEST(CheckFig6Test, RejectsFailOutcome) {
  TraceBuilder builder{refs({1, 2}), refs({1})};
  builder.step(10, refs({1, 2}), refs({1}), StepOutcome::kFailed);
  EXPECT_FALSE(
      check_fig6(builder.build(), static_timeline(refs({1, 2}))).satisfied());
}

TEST(CheckFig6Test, RejectsYieldNeverInWindow) {
  // Element 9 is yielded but, per ground truth, was never a member between
  // first and last — the stale-replica ghost case.
  MembershipTimeline timeline;
  timeline.set_initial(refs({1}));

  TraceBuilder builder{refs({1})};
  builder.yield(10, refs({1, 9}), ref(1));  // observation lies? no: members
  builder.yield(20, refs({1, 9}), ref(9));  // per-invocation check passes...
  builder.ret(30, refs({1, 9}));
  // ...but the timeline (ground truth) never contained 9.
  const auto report = check_fig6(builder.build(), timeline);
  EXPECT_FALSE(report.satisfied());
  EXPECT_NE(report.violations().back().find("never a member"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Constraints and classification

TEST(ConstraintTest, ImmutableAndGrowOnlyReports) {
  MembershipTimeline timeline;
  timeline.set_initial(refs({1}));
  timeline.record(at_ms(10), CollectionOp::Kind::kAdd, ref(2));
  EXPECT_FALSE(
      check_constraint_immutable(timeline, at_ms(0), at_ms(20)).satisfied());
  EXPECT_TRUE(
      check_constraint_grow_only(timeline, at_ms(0), at_ms(20)).satisfied());
  timeline.record(at_ms(30), CollectionOp::Kind::kRemove, ref(1));
  EXPECT_FALSE(
      check_constraint_grow_only(timeline, at_ms(0), at_ms(40)).satisfied());
}

TEST(ClassifyTest, BenignRunSatisfiesEverything) {
  const auto trace = TraceBuilder{refs({1})}
                         .yield(10, refs({1}), ref(1))
                         .ret(20, refs({1}))
                         .build();
  const auto conformance = classify(trace, static_timeline(refs({1})));
  EXPECT_EQ(conformance.to_string(), "fig1 fig3 fig4 fig5 fig6");
}

TEST(ClassifyTest, GrowthBreaksImmutableFigsOnly) {
  MembershipTimeline timeline;
  timeline.set_initial(refs({1}));
  timeline.record(at_ms(15), CollectionOp::Kind::kAdd, ref(2));
  const auto trace = TraceBuilder{refs({1})}
                         .yield(10, refs({1}), ref(1))
                         .yield(20, refs({1, 2}), ref(2))
                         .ret(30, refs({1, 2}))
                         .build();
  const auto conformance = classify(trace, timeline);
  EXPECT_FALSE(conformance.fig1());
  EXPECT_FALSE(conformance.fig3());
  EXPECT_FALSE(conformance.fig4());  // yielded an element outside s_first
  EXPECT_TRUE(conformance.fig5());
  EXPECT_TRUE(conformance.fig6());
}

TEST(ConstraintTest, PerRunRelaxedConstraint) {
  // Section 3.1: mutation allowed BETWEEN runs, not within one.
  MembershipTimeline timeline;
  timeline.set_initial(refs({1}));
  timeline.record(at_ms(50), CollectionOp::Kind::kAdd, ref(2));  // between

  const std::vector<RunWindow> clean_runs{{at_ms(0), at_ms(40)},
                                          {at_ms(60), at_ms(100)}};
  EXPECT_TRUE(check_constraint_per_run(timeline, clean_runs).satisfied());

  const std::vector<RunWindow> dirty_runs{{at_ms(0), at_ms(55)},  // spans it
                                          {at_ms(60), at_ms(100)}};
  const auto report = check_constraint_per_run(timeline, dirty_runs);
  EXPECT_FALSE(report.satisfied());
  EXPECT_EQ(report.violation_count(), 1u);
}

TEST(ConstraintTest, PerRunWithNoRunsIsTriviallySatisfied) {
  MembershipTimeline timeline;
  timeline.set_initial(refs({1}));
  timeline.record(at_ms(5), CollectionOp::Kind::kRemove, ref(1));
  EXPECT_TRUE(check_constraint_per_run(timeline, {}).satisfied());
}

TEST(SpecReportTest, CapsStoredMessages) {
  SpecReport report{"test"};
  for (int i = 0; i < 100; ++i) report.violate("v" + std::to_string(i));
  EXPECT_EQ(report.violation_count(), 100u);
  EXPECT_EQ(report.violations().size(), SpecReport::kMaxMessages);
  EXPECT_FALSE(report.satisfied());
}

}  // namespace
}  // namespace weakset::spec
