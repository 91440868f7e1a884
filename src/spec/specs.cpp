#include "spec/specs.hpp"

#include <set>
#include <sstream>

namespace weakset::spec {
namespace {

std::string describe(ObjectRef ref) {
  return "obj" + std::to_string(ref.id().raw()) + "@node" +
         std::to_string(ref.home().raw());
}

std::string at(const InvocationRecord& inv, std::size_t index) {
  std::ostringstream os;
  os << "invocation " << index << " (t=" << inv.pre_time().as_millis()
     << "ms, " << to_string(inv.outcome()) << ")";
  return os.str();
}

/// Witness rule: predicate over a state, satisfied at pre or post.
template <typename Fn>
bool witness(const InvocationRecord& inv, Fn&& fn) {
  return fn(inv.pre()) || fn(inv.post());
}

}  // namespace

// ---------------------------------------------------------------------------
// Figure 1

SpecReport check_fig1(const IterationTrace& trace) {
  SpecReport report{"fig1-immutable-no-failures"};
  if (!trace.started()) return report;
  const RefSet& s_first = trace.first().members();
  std::set<ObjectRef> yielded;  // the remembered history object

  std::size_t index = 0;
  for (const InvocationRecord& inv : trace.invocations()) {
    switch (inv.outcome()) {
      case StepOutcome::kSuspended: {
        if (!inv.element()) {
          report.violate(at(inv, index) + ": suspended without an element");
          break;
        }
        const ObjectRef e = *inv.element();
        if (yielded.count(e) > 0) {
          report.violate(at(inv, index) + ": duplicate yield of " +
                         describe(e));
        }
        if (!s_first.contains(e)) {
          report.violate(at(inv, index) + ": yielded " + describe(e) +
                         " which is not in s_first");
        }
        if (yielded.size() >= s_first.size()) {
          report.violate(at(inv, index) +
                         ": suspended after s_first was exhausted");
        }
        yielded.insert(e);
        break;
      }
      case StepOutcome::kReturned:
        if (!same_members(yielded, s_first)) {
          report.violate(at(inv, index) +
                         ": returned with yielded != s_first (" +
                         std::to_string(yielded.size()) + " of " +
                         std::to_string(s_first.size()) + " yielded)");
        }
        break;
      case StepOutcome::kFailed:
        report.violate(at(inv, index) + ": fig1 never signals failure");
        break;
      case StepOutcome::kBlocked:
        report.violate(at(inv, index) + ": fig1 invocations must complete");
        break;
    }
    ++index;
  }
  return report;
}

// ---------------------------------------------------------------------------
// Figures 3 and 4 (shared ensures clause)

SpecReport check_fig3_fig4_ensures(const IterationTrace& trace,
                                   std::string name) {
  SpecReport report{std::move(name)};
  if (!trace.started()) return report;
  const RefSet& s_first = trace.first().members();
  std::set<ObjectRef> yielded;

  std::size_t index = 0;
  for (const InvocationRecord& inv : trace.invocations()) {
    // reachable(s_first) in this invocation's pre/post states.
    const RefSet& reach_pre = inv.pre_reachable_of_first();
    const RefSet& reach_post = inv.post_reachable_of_first();
    switch (inv.outcome()) {
      case StepOutcome::kSuspended: {
        if (!inv.element()) {
          report.violate(at(inv, index) + ": suspended without an element");
          break;
        }
        const ObjectRef e = *inv.element();
        if (yielded.count(e) > 0) {
          report.violate(at(inv, index) + ": duplicate yield of " +
                         describe(e));
        }
        if (!s_first.contains(e)) {
          report.violate(at(inv, index) + ": yielded " + describe(e) +
                         " which is not in s_first");
        }
        // e ∈ reachable(s_first) — at pre or post (witness rule).
        if (!reach_pre.contains(e) && !reach_post.contains(e)) {
          report.violate(at(inv, index) + ": yielded unreachable element " +
                         describe(e));
        }
        // Branch guard: yielded_pre ⊂ reachable(s_first) must have held.
        if (subset(reach_pre, yielded) && subset(reach_post, yielded)) {
          report.violate(
              at(inv, index) +
              ": suspended although every reachable first-state element "
              "was already yielded");
        }
        yielded.insert(e);
        break;
      }
      case StepOutcome::kReturned:
        if (!same_members(yielded, s_first)) {
          report.violate(at(inv, index) +
                         ": returned with yielded != s_first (" +
                         std::to_string(yielded.size()) + " of " +
                         std::to_string(s_first.size()) + ")");
        }
        break;
      case StepOutcome::kFailed: {
        // fails requires: yielded = reachable(s_first) ∧ yielded ⊂ s_first.
        // Witness rule for the negative condition: reachability may flap
        // *within* the invocation, so we flag only a STABLE ignored
        // candidate — an unyielded first-state element reachable at both
        // the pre- and the post-state.
        bool stable_candidate_ignored = false;
        for (const ObjectRef e : reach_pre) {
          if (yielded.count(e) == 0 && reach_post.contains(e)) {
            stable_candidate_ignored = true;
            break;
          }
        }
        if (stable_candidate_ignored) {
          report.violate(at(inv, index) +
                         ": failed although a reachable unyielded "
                         "first-state element remained throughout");
        }
        if (same_members(yielded, s_first)) {
          report.violate(at(inv, index) +
                         ": failed after yielding all of s_first (should "
                         "have returned)");
        }
        break;
      }
      case StepOutcome::kBlocked:
        report.violate(at(inv, index) +
                       ": pessimistic invocations must complete");
        break;
    }
    ++index;
  }
  return report;
}

// ---------------------------------------------------------------------------
// Figure 5

SpecReport check_fig5(const IterationTrace& trace) {
  SpecReport report{"fig5-grow-only-pessimistic"};
  if (!trace.started()) return report;
  std::set<ObjectRef> yielded;

  std::size_t index = 0;
  for (const InvocationRecord& inv : trace.invocations()) {
    switch (inv.outcome()) {
      case StepOutcome::kSuspended: {
        if (!inv.element()) {
          report.violate(at(inv, index) + ": suspended without an element");
          break;
        }
        const ObjectRef e = *inv.element();
        if (yielded.count(e) > 0) {
          report.violate(at(inv, index) + ": duplicate yield of " +
                         describe(e));
        }
        // e ∈ reachable(s_pre) (witness rule).
        if (!witness(inv, [&](const SetObservation& s) {
              return s.can_reach(e);
            })) {
          report.violate(at(inv, index) + ": yielded " + describe(e) +
                         " which is not in reachable(s_pre)");
        }
        yielded.insert(e);
        // yielded_post ⊆ s_pre.
        if (!witness(inv, [&](const SetObservation& s) {
              return subset(yielded, s.members());
            })) {
          report.violate(at(inv, index) +
                         ": yielded set is not a subset of s_pre (a yielded "
                         "element was removed — set did not only grow)");
        }
        break;
      }
      case StepOutcome::kReturned:
        // yielded_pre = s_pre.
        if (!witness(inv, [&](const SetObservation& s) {
              return same_members(yielded, s.members());
            })) {
          report.violate(at(inv, index) +
                         ": returned with yielded != s_pre");
        }
        break;
      case StepOutcome::kFailed: {
        // Operational reading of the else-branch: an unyielded member exists
        // (so we may not return) but no unyielded member is reachable (so we
        // cannot make progress) — "because we cannot reach an element that
        // we know is in the set, we fail". As in Fig 3, reachability may
        // flap within the invocation: only a candidate reachable at BOTH
        // boundaries convicts the iterator of giving up too early.
        const bool unyielded_exists =
            witness(inv, [&](const SetObservation& s) {
              return !subset(s.members(), yielded);
            });
        bool stable_candidate_ignored = false;
        for (const ObjectRef e : inv.pre().reachable()) {
          if (yielded.count(e) == 0 && inv.post().can_reach(e)) {
            stable_candidate_ignored = true;
            break;
          }
        }
        if (!unyielded_exists) {
          report.violate(at(inv, index) +
                         ": failed although everything had been yielded "
                         "(should have returned)");
        }
        if (stable_candidate_ignored) {
          report.violate(at(inv, index) +
                         ": failed although a reachable unyielded member "
                         "remained throughout");
        }
        break;
      }
      case StepOutcome::kBlocked:
        report.violate(at(inv, index) +
                       ": pessimistic invocations must complete");
        break;
    }
    ++index;
  }
  return report;
}

// ---------------------------------------------------------------------------
// Figure 6

SpecReport check_fig6(const IterationTrace& trace,
                      const MembershipTimeline& timeline) {
  SpecReport report{"fig6-optimistic"};
  if (!trace.started()) return report;
  std::set<ObjectRef> yielded;

  std::size_t index = 0;
  for (const InvocationRecord& inv : trace.invocations()) {
    switch (inv.outcome()) {
      case StepOutcome::kSuspended: {
        if (!inv.element()) {
          report.violate(at(inv, index) + ": suspended without an element");
          break;
        }
        const ObjectRef e = *inv.element();
        if (yielded.count(e) > 0) {
          report.violate(at(inv, index) + ": duplicate yield of " +
                         describe(e));
        }
        // e ∈ reachable(s_pre) (witness rule). This implies the branch guard
        // ∃ e' ∈ s_pre not yet yielded.
        if (!witness(inv, [&](const SetObservation& s) {
              return s.can_reach(e);
            })) {
          report.violate(at(inv, index) + ": yielded " + describe(e) +
                         " which is not in reachable(s_pre)");
        }
        yielded.insert(e);
        break;
      }
      case StepOutcome::kReturned:
        // returns iff ¬∃ e ∈ s_pre : e ∉ yielded, i.e. s_pre ⊆ yielded.
        if (!witness(inv, [&](const SetObservation& s) {
              return subset(s.members(), yielded);
            })) {
          report.violate(at(inv, index) +
                         ": returned while unyielded members existed");
        }
        break;
      case StepOutcome::kFailed:
        // Figure 6's signature has no signals clause: it never fails.
        report.violate(at(inv, index) + ": fig6 never signals failure");
        break;
      case StepOutcome::kBlocked:
        // "it may never return if a failure is detected" — allowed.
        break;
    }
    ++index;
  }

  // End-to-end guarantee: every yielded element was a member of the set at
  // some state between the first-state and the last-state.
  for (const ObjectRef e : trace.yield_sequence()) {
    if (!timeline.present_in_window(e, trace.first_time(),
                                    trace.last_time())) {
      report.violate("yielded element " + describe(e) +
                     " was never a member during [first, last]");
    }
  }
  return report;
}

SpecReport check_converged(
    const std::vector<std::pair<std::string, std::vector<ObjectRef>>>& hosts) {
  SpecReport report{"orset-convergence"};
  if (hosts.empty()) {
    report.violate("no OR-Set hosts observed");
    return report;
  }
  const auto& [base_label, base_members] = hosts.front();
  for (std::size_t i = 1; i < hosts.size(); ++i) {
    const auto& [label, members] = hosts[i];
    if (members != base_members) {
      report.violate(label + " diverges from " + base_label + " (" +
                     std::to_string(members.size()) + " vs " +
                     std::to_string(base_members.size()) + " members)");
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Constraints

SpecReport check_constraint_immutable(const MembershipTimeline& timeline,
                                      SimTime first, SimTime last) {
  SpecReport report{"constraint-immutable"};
  if (!timeline.unchanged_in_window(first, last)) {
    report.violate("set mutated during the run window (" +
                   std::to_string(timeline.mutations_in_window(first, last)) +
                   " mutations)");
  }
  return report;
}

SpecReport check_constraint_grow_only(const MembershipTimeline& timeline,
                                      SimTime first, SimTime last) {
  SpecReport report{"constraint-grow-only"};
  if (!timeline.grow_only_in_window(first, last)) {
    report.violate("set shrank during the run window");
  }
  return report;
}

SpecReport check_constraint_per_run(const MembershipTimeline& timeline,
                                    const std::vector<RunWindow>& runs) {
  SpecReport report{"constraint-immutable-per-run"};
  std::size_t index = 0;
  for (const RunWindow& run : runs) {
    if (!timeline.unchanged_in_window(run.first(), run.last())) {
      report.violate(
          "run " + std::to_string(index) + " [" +
          std::to_string(run.first().as_millis()) + "ms, " +
          std::to_string(run.last().as_millis()) +
          "ms] saw mutations (allowed only between runs)");
    }
    ++index;
  }
  return report;
}

// ---------------------------------------------------------------------------
// Classification

std::string Conformance::to_string() const {
  std::string out;
  auto append = [&out](bool ok, const char* tag) {
    if (ok) {
      if (!out.empty()) out += ' ';
      out += tag;
    }
  };
  append(fig1_, "fig1");
  append(fig3_, "fig3");
  append(fig4_, "fig4");
  append(fig5_, "fig5");
  append(fig6_, "fig6");
  return out.empty() ? "none" : out;
}

Conformance classify(const IterationTrace& trace,
                     const MembershipTimeline& timeline) {
  const SimTime first = trace.first_time();
  const SimTime last = trace.last_time();
  const bool immutable =
      check_constraint_immutable(timeline, first, last).satisfied();
  const bool grow_only =
      check_constraint_grow_only(timeline, first, last).satisfied();
  return Conformance{
      check_fig1(trace).satisfied() && immutable,
      check_fig3(trace).satisfied() && immutable,
      check_fig4(trace).satisfied(),
      check_fig5(trace).satisfied() && grow_only,
      check_fig6(trace, timeline).satisfied(),
  };
}

}  // namespace weakset::spec
