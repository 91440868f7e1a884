#include "spec/taxonomy.hpp"

#include <set>

namespace weakset::spec {

TaxonomyClass classify_taxonomy(const IterationTrace& trace,
                                const MembershipTimeline& timeline) {
  const SimTime first = trace.first_time();
  const SimTime last = trace.last_time();
  const std::set<ObjectRef> s_first = timeline.value_at(first);

  std::set<ObjectRef> yielded;
  for (const ObjectRef ref : trace.yield_sequence()) yielded.insert(ref);

  // Currency: first-vintage iff the yielded data reflects only the
  // first-state's membership; anything that surfaced a later addition is
  // first-bound.
  const bool only_first_state_data = subset(yielded, s_first);
  const Currency currency = only_first_state_data ? Currency::kFirstVintage
                                                  : Currency::kFirstBound;

  // Consistency: strong iff the set's value never changed during the run
  // (the result is trivially serializable at any point of it). Weak iff the
  // set changed but the yields are still one state's value — the
  // first-state's (a consistent-but-not-serializable snapshot). Otherwise
  // none: the yields mix states.
  Consistency consistency = Consistency::kNone;
  if (timeline.unchanged_in_window(first, last)) {
    consistency = Consistency::kStrong;
  } else if (only_first_state_data) {
    // All data is of the first-state; a snapshot query (possibly truncated
    // by reachability, which affects completeness, not consistency).
    consistency = Consistency::kWeak;
  }
  return TaxonomyClass{consistency, currency};
}

}  // namespace weakset::spec
