#include "dynset/dynamic_set.hpp"

#include <algorithm>

namespace weakset {
namespace {

/// This module's telemetry names, interned once per process.
struct DynSetMetrics {
  obs::CounterId fetches_failed{"dynset.fetches_failed"};
  obs::CounterId fetches_ok{"dynset.fetches_ok"};
  obs::CounterId fetches_started{"dynset.fetches_started"};
  obs::CounterId in_order_arrivals{"dynset.in_order_arrivals"};
  obs::CounterId membership_read_failures{"dynset.membership_read_failures"};
  obs::CounterId membership_reads{"dynset.membership_reads"};
  obs::CounterId out_of_order_arrivals{"dynset.out_of_order_arrivals"};
  obs::CounterId sessions{"dynset.sessions"};
  obs::HistogramId arrival_order_distance{"dynset.arrival_order_distance"};
  obs::HistogramId inflight{"dynset.inflight"};
};
const DynSetMetrics kMetrics{};

}  // namespace

std::unique_ptr<DynamicSet> DynamicSet::open(SetView& view,
                                             DynSetOptions options) {
  auto state = std::make_shared<State>(view, options);
  view.sim().spawn(engine(state));
  return std::unique_ptr<DynamicSet>{new DynamicSet{std::move(state)}};
}

void DynamicSet::close() {
  if (state_->stopped) return;
  state_->stopped = true;
  if (!state_->finished) {
    state_->finished = true;
    state_->arrivals.close();
  }
  // Terminal stats fold: one session's counters land in the registry once.
  const DynSetStats& s = state_->stats;
  obs::MetricsRegistry& m = state_->metrics;
  m.add(kMetrics.sessions);
  m.add(kMetrics.fetches_started, s.fetches_started);
  m.add(kMetrics.fetches_ok, s.fetches_ok);
  m.add(kMetrics.fetches_failed, s.fetches_failed);
  m.add(kMetrics.membership_reads, s.membership_reads);
  m.add(kMetrics.membership_read_failures, s.membership_read_failures);
}

Task<Step> DynamicSet::iterate() {
  assert(!state_->stopped && "iterate() after close()");
  if (state_->options.delivery == DeliveryOrder::kMembership) {
    Step step = co_await iterate_in_order();
    if (step.is_yield()) yielded_.push_back(step.ref());
    co_return step;
  }
  std::optional<Step> step = co_await state_->arrivals.pop();
  if (!step) co_return Step::finished();  // engine drained and closed
  if (step->is_yield()) yielded_.push_back(step->ref());
  co_return *step;
}

Task<Step> DynamicSet::iterate_in_order() {
  for (;;) {
    // Serve the next digest-order element if it has already arrived.
    if (next_in_order_ < state_->digest_order.size()) {
      const auto it = held_.find(state_->digest_order[next_in_order_]);
      if (it != held_.end()) {
        Step step = it->second;
        held_.erase(it);
        ++next_in_order_;
        co_return step;
      }
    }
    if (terminal_) {
      // The engine is done; drain any held elements (their predecessors
      // failed to arrive), then report the terminal outcome.
      while (next_in_order_ < state_->digest_order.size()) {
        const auto it = held_.find(state_->digest_order[next_in_order_]);
        ++next_in_order_;
        if (it != held_.end()) {
          Step step = it->second;
          held_.erase(it);
          co_return step;
        }
      }
      co_return *terminal_;
    }
    std::optional<Step> arrived = co_await state_->arrivals.pop();
    if (!arrived) {
      terminal_ = Step::finished();
      continue;
    }
    if (!arrived->is_yield()) {
      terminal_ = *arrived;
      continue;
    }
    held_.emplace(arrived->ref(), *arrived);
  }
}

Task<Result<std::vector<ObjectRef>>> DynamicSet::digest() {
  return state_->view->read_members();
}

bool DynamicSet::drained(const State& state) {
  return state.fetch_queue_.empty() && state.deferred.empty() &&
         state.in_flight == 0;
}

void DynamicSet::pump(const std::shared_ptr<State>& state) {
  while (state->in_flight < state->options.prefetch_depth &&
         !state->fetch_queue_.empty()) {
    const ObjectRef ref = state->fetch_queue_.front();
    state->fetch_queue_.pop_front();
    if (!state->view->is_reachable(ref)) {
      // Defer: optimism expects the failure to be repaired later.
      state->deferred.insert(ref);
      continue;
    }
    ++state->in_flight;
    ++state->stats.fetches_started;
    state->issue_seq[ref] = state->next_issue++;
    state->view->sim().spawn(fetch_one(state, ref));
  }
  // Occupancy after every pump: how full the prefetch pipeline actually
  // runs (depth-limited vs starved by the fetch queue).
  state->metrics.record_value(kMetrics.inflight,
                              static_cast<std::int64_t>(state->in_flight));
}

Task<void> DynamicSet::fetch_one(std::shared_ptr<State> state, ObjectRef ref) {
  Result<VersionedValue> value = co_await state->view->fetch(ref);
  --state->in_flight;
  if (state->stopped || state->finished) co_return;
  if (value) {
    ++state->stats.fetches_ok;
    state->made_progress = true;
    // Arrival order vs issue order: distance 0 means the pipeline delivered
    // in the closest-first order it was asked for.
    const std::uint64_t arrival = state->next_arrival++;
    const auto seq = state->issue_seq.find(ref);
    if (seq != state->issue_seq.end()) {
      const std::uint64_t issued = seq->second;
      const std::uint64_t distance =
          issued > arrival ? issued - arrival : arrival - issued;
      state->metrics.record_value(kMetrics.arrival_order_distance,
                                  static_cast<std::int64_t>(distance));
      state->metrics.add(distance == 0 ? kMetrics.in_order_arrivals
                                       : kMetrics.out_of_order_arrivals);
      state->issue_seq.erase(seq);
    }
    state->arrivals.push(Step::yielded(ref, std::move(value).value()));
  } else {
    ++state->stats.fetches_failed;
    state->issue_seq.erase(ref);
    state->deferred.insert(ref);
  }
  pump(state);
  if (drained(*state) && state->round_wake) {
    // Nothing left to do: wake the engine so a fresh confirming read can
    // close the session (or discover late growth) immediately.
    state->round_wake->try_set(true);
  }
}

Task<void> DynamicSet::engine(std::shared_ptr<State> state) {
  Simulator& sim = state->view->sim();
  const SimTime opened_at = sim.now();
  for (;;) {
    if (state->stopped || state->finished) co_return;

    // Session budget: stop starting new work once the time budget is spent.
    // Elements already in the arrival buffer still drain to the consumer.
    if (state->options.session_budget &&
        sim.now() - opened_at >= *state->options.session_budget) {
      state->finished = true;
      state->arrivals.push(Step::failed(
          Failure{FailureKind::kTimeout, "dynamic-set session budget spent"}));
      state->arrivals.close();
      co_return;
    }

    // Refresh membership: discover growth, and re-admit deferred elements
    // whose homes came back.
    ++state->stats.membership_reads;
    Result<std::vector<ObjectRef>> members =
        co_await state->view->read_members();
    if (state->stopped || state->finished) co_return;
    if (members) {
      for (const ObjectRef ref : members.value()) {
        if (state->seen.insert(ref).second) {
          state->fetch_queue_.push_back(ref);
          state->digest_order.push_back(ref);
          state->made_progress = true;  // discovered new work
        }
      }
    } else {
      ++state->stats.membership_read_failures;
    }
    for (auto it = state->deferred.begin(); it != state->deferred.end();) {
      if (state->view->is_reachable(*it)) {
        state->fetch_queue_.push_back(*it);
        it = state->deferred.erase(it);
      } else {
        ++it;
      }
    }

    if (state->options.order == PickOrder::kClosestFirst) {
      std::stable_sort(state->fetch_queue_.begin(), state->fetch_queue_.end(),
                       [&state](ObjectRef a, ObjectRef b) {
                         const auto da = state->view->distance(a);
                         const auto db = state->view->distance(b);
                         if (da && db) return *da < *db;
                         return da.has_value() && !db.has_value();
                       });
    }

    pump(state);

    // Close only against a fresh, successful read that surfaced no new work
    // (Figure 6 returns iff every member of s_pre has been yielded).
    if (members.has_value() && drained(*state)) {
      state->finished = true;
      state->arrivals.close();
      co_return;
    }

    // Blocking bound: count rounds in which nothing moved while undelivered
    // members remain.
    if (state->made_progress || state->in_flight > 0) {
      state->stalled_rounds = 0;
    } else {
      ++state->stalled_rounds;
      const RetryPolicy& retry = state->options.retry;
      if (!retry.is_forever() &&
          state->stalled_rounds >= retry.max_attempts()) {
        state->finished = true;
        state->arrivals.push(Step::failed(Failure{
            FailureKind::kExhausted,
            "dynamic set made no progress for the whole retry budget"}));
        state->arrivals.close();
        co_return;
      }
    }
    state->made_progress = false;

    // Sleep until the next round — or until a fetch worker reports that all
    // work ran dry and a confirming read should happen now. A session
    // budget clamps the sleep so expiry is handled on time.
    Duration sleep = state->options.membership_refresh;
    if (state->options.session_budget) {
      const Duration remaining =
          opened_at + *state->options.session_budget - sim.now();
      sleep = std::min(sleep, std::max(remaining, Duration::zero()));
    }
    state->round_wake.emplace(sim);
    OneShot<bool> wake = *state->round_wake;
    const auto timer = sim.schedule_cancellable(
        sleep, [wake]() mutable { wake.try_set(true); });
    (void)co_await state->round_wake->wait();
    timer.cancel();
    state->round_wake.reset();
  }
}

}  // namespace weakset
