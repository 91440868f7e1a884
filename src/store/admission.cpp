#include "store/admission.hpp"

namespace weakset {
namespace {

/// This module's telemetry names, interned once per process.
struct AdmissionMetrics {
  obs::CounterId admitted{"store.admission.admitted"};
  obs::CounterId offered{"store.admission.offered"};
  obs::CounterId shed{"store.admission.shed"};
  obs::HistogramId queue_depth{"store.admission.queue_depth"};
  obs::HistogramId wait{"store.admission.wait"};
};
const AdmissionMetrics kMetrics{};

}  // namespace

bool AdmissionController::AdmitAwaiter::await_ready() {
  ctl->metrics_->add(kMetrics.offered);
  // Free slot: admit on the spot, no queueing.
  if (ctl->in_service_ < ctl->options_.max_concurrency) {
    ++ctl->in_service_;
    waiter.admitted = true;
    ctl->metrics_->add(kMetrics.admitted);
    return true;
  }
  if (ctl->options_.policy == AdmissionPolicy::kReject &&
      ctl->queued_for(tenant) >= ctl->options_.max_queue_depth) {
    // Tail drop: this arrival is the one refused.
    ctl->metrics_->add(kMetrics.shed);
    waiter.admitted = false;
    return true;
  }
  if (ctl->options_.policy == AdmissionPolicy::kShedOldest &&
      ctl->queued_for(tenant) >= ctl->options_.max_queue_depth) {
    if (ctl->options_.max_queue_depth == 0) {
      // Degenerate bound: nothing queued to shed, refuse the arrival.
      ctl->metrics_->add(kMetrics.shed);
      waiter.admitted = false;
      return true;
    }
    // Head drop: the oldest queued request of this tenant loses its slot
    // to the arrival (it has waited longest and is the most likely to have
    // already timed out at its caller).
    ctl->shed_oldest(tenant);
  }
  return false;  // suspend into the queue
}

void AdmissionController::AdmitAwaiter::await_suspend(
    std::coroutine_handle<> handle) {
  waiter.handle = handle;
  waiter.enqueued_at = ctl->sim_->now();
  ctl->queues_[tenant].push_back(&waiter);
  ++ctl->total_queued_;
  // Per-tenant depth after the push: the quantity the policy bounds, so the
  // histogram's max directly witnesses "never above max_queue_depth".
  ctl->metrics_->record_value(
      kMetrics.queue_depth, static_cast<std::int64_t>(ctl->queued_for(tenant)));
}

void AdmissionController::release_slot(std::uint64_t generation) {
  if (generation != generation_) return;  // ticket from before a crash reset
  assert(in_service_ > 0);
  --in_service_;
  pump();
}

void AdmissionController::pump() {
  while (in_service_ < options_.max_concurrency && total_queued_ > 0) {
    // Round-robin: resume scanning strictly after the last-served tenant,
    // wrapping to the smallest tenant id. queues_ only holds non-empty
    // deques, so the first hit is the next tenant owed a slot.
    auto it = rr_valid_ ? queues_.upper_bound(rr_cursor_) : queues_.begin();
    if (it == queues_.end()) it = queues_.begin();
    assert(it != queues_.end() && !it->second.empty());
    Waiter* waiter = it->second.front();
    it->second.pop_front();
    rr_cursor_ = it->first;
    rr_valid_ = true;
    if (it->second.empty()) queues_.erase(it);
    --total_queued_;
    ++in_service_;
    waiter->admitted = true;
    metrics_->add(kMetrics.admitted);
    metrics_->record(kMetrics.wait, sim_->now() - waiter->enqueued_at);
    resume_later(waiter->handle);
  }
}

void AdmissionController::shed_oldest(std::uint64_t tenant) {
  const auto it = queues_.find(tenant);
  assert(it != queues_.end() && !it->second.empty());
  Waiter* waiter = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  --total_queued_;
  waiter->admitted = false;
  metrics_->add(kMetrics.shed);
  resume_later(waiter->handle);
}

void AdmissionController::reset() {
  ++generation_;
  in_service_ = 0;
  total_queued_ = 0;
  // Queued waiters resume non-admitted; their handlers' epoch checks report
  // the crash (kNodeCrashed), not a spurious overload.
  for (auto& [tenant, queue] : queues_) {
    for (Waiter* waiter : queue) {
      waiter->admitted = false;
      resume_later(waiter->handle);
    }
  }
  queues_.clear();
}

void AdmissionController::resume_later(std::coroutine_handle<> handle) {
  sim_->schedule(Duration::zero(), [handle] { handle.resume(); });
}

}  // namespace weakset
