#pragma once

// Admission control and fair queueing for a store server (DESIGN.md
// decision 15).
//
// Without admission control the simulated server model serves every request
// concurrently: under a 2x-overload open-loop workload nothing rejects, the
// number of in-flight handlers grows without bound, and — exactly as in a
// real system with an unbounded accept queue — tail latency collapses. The
// AdmissionController bounds that: a fixed number of service slots
// (max_concurrency) models the server's capacity, and requests beyond it
// wait in bounded *per-tenant* FIFO queues. Slots freed by completing
// requests are handed to waiting tenants round-robin (fair queueing: one
// aggressive tenant cannot starve the others), and when a tenant's queue is
// full the overload policy decides who loses:
//
//   kUnbounded  — no queue bound at all: the collapse baseline the scale
//                 bench (E18) measures the other policies against.
//   kReject     — the *arriving* request is refused immediately with
//                 FailureKind::kOverloaded (classic tail-drop).
//   kShedOldest — the *oldest queued* request of that tenant is shed and
//                 the arrival takes its queue slot (head-drop: the request
//                 most likely to have already timed out at its caller is
//                 the one dropped).
//
// Rejected and shed requests fail with an explicit kOverloaded error the
// client can back off on; admitted requests keep bounded queueing delay.
// This is the Fig6-compatible overload contract: results the server does
// return are justified by a real visibility relation — load shedding makes
// requests *fail loudly*, never answer wrongly.
//
// Determinism: queues are keyed in a std::map (ordered tenants), the
// round-robin cursor is plain state, and waiters resume through the
// simulator's event queue (cf. sim/channel.hpp) — same-seed runs admit and
// shed identically. Everything is per-server, touched only from that
// server's RPC handlers.

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace weakset {

/// What to do with an arrival when its tenant's admission queue is full.
enum class AdmissionPolicy : std::uint8_t {
  kUnbounded,   ///< Never full: queue grows without bound (collapse baseline).
  kReject,      ///< Refuse the arrival with kOverloaded (tail drop).
  kShedOldest,  ///< Shed the oldest queued request, enqueue the arrival.
};

struct AdmissionOptions {
  /// Master switch. Off (the default): requests are never queued or shed and
  /// the controller records nothing — the historical serve-everything model,
  /// keeping every pre-existing baseline byte-identical.
  bool enabled = false;
  AdmissionPolicy policy = AdmissionPolicy::kReject;
  /// Service slots: how many admitted requests may be in flight at once.
  /// This is the server's modeled capacity; the per-request service *time*
  /// is still charged by the handler (kMembershipLatency et al.).
  std::size_t max_concurrency = 64;
  /// Queue slots per tenant (ignored under kUnbounded).
  std::size_t max_queue_depth = 256;
};

class AdmissionController;

/// RAII admission grant. A handler holds its ticket for the whole request;
/// the destructor returns the service slot, pumping the next waiter. A
/// default-constructed (or shed) ticket owns nothing. Tickets carry the
/// controller generation at grant time so a ticket that survives an amnesia
/// wipe (its handler suspended across the crash) cannot corrupt the reset
/// slot accounting.
class AdmissionTicket {
 public:
  AdmissionTicket() noexcept = default;
  AdmissionTicket(AdmissionController* controller, std::uint64_t generation,
                  bool admitted) noexcept
      : controller_(controller), generation_(generation), admitted_(admitted) {}
  AdmissionTicket(AdmissionTicket&& other) noexcept
      : controller_(other.controller_),
        generation_(other.generation_),
        admitted_(other.admitted_) {
    other.controller_ = nullptr;
    other.admitted_ = false;
  }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      release();
      controller_ = other.controller_;
      generation_ = other.generation_;
      admitted_ = other.admitted_;
      other.controller_ = nullptr;
      other.admitted_ = false;
    }
    return *this;
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;
  ~AdmissionTicket() { release(); }

  /// True if the request was admitted (holds a service slot). False for a
  /// default-constructed, shed, or crash-reset grant: fail with kOverloaded.
  [[nodiscard]] bool admitted() const noexcept { return admitted_; }

 private:
  void release() noexcept;

  AdmissionController* controller_ = nullptr;
  std::uint64_t generation_ = 0;
  bool admitted_ = false;
};

/// Bounded per-tenant admission queues in front of a fixed pool of service
/// slots, with round-robin fair dequeue across tenants. One per StoreServer.
class AdmissionController {
 public:
  AdmissionController(Simulator& sim, AdmissionOptions options,
                      obs::MetricsRegistry& metrics)
      : sim_(&sim), options_(options), metrics_(&metrics) {}
  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return options_.enabled; }
  [[nodiscard]] const AdmissionOptions& options() const noexcept {
    return options_;
  }

  /// Awaitable admission request for `tenant`. Resolves to an admitted
  /// ticket once a service slot is held (immediately if one is free), or to
  /// a non-admitted ticket if this request was rejected/shed — the handler
  /// then fails with FailureKind::kOverloaded.
  [[nodiscard]] auto admit(std::uint64_t tenant) {
    return AdmitAwaiter{this, tenant};
  }

  /// Amnesia crash: drops all queued waiters (they resume non-admitted; the
  /// handler's epoch check turns that into kNodeCrashed), zeroes the slot
  /// accounting, and invalidates outstanding tickets via the generation.
  void reset();

  // Introspection for tests and the load engine.
  [[nodiscard]] std::size_t in_service() const noexcept { return in_service_; }
  [[nodiscard]] std::size_t queued() const noexcept { return total_queued_; }
  [[nodiscard]] std::size_t queued_for(std::uint64_t tenant) const {
    const auto it = queues_.find(tenant);
    return it == queues_.end() ? 0 : it->second.size();
  }

 private:
  friend class AdmissionTicket;

  struct Waiter {
    std::coroutine_handle<> handle = nullptr;
    SimTime enqueued_at;
    bool admitted = false;
  };

  struct AdmitAwaiter {
    AdmissionController* ctl;
    std::uint64_t tenant;
    Waiter waiter;

    bool await_ready();
    void await_suspend(std::coroutine_handle<> handle);
    AdmissionTicket await_resume() noexcept {
      return AdmissionTicket{ctl, ctl->generation_, waiter.admitted};
    }
  };

  /// Ticket destructor path: frees a slot and pumps the next waiter.
  void release_slot(std::uint64_t generation);
  /// Hands free slots to queued waiters, round-robin across tenants.
  void pump();
  void resume_later(std::coroutine_handle<> handle);
  /// Removes and resumes (non-admitted) the oldest waiter of `tenant`.
  void shed_oldest(std::uint64_t tenant);

  Simulator* sim_;
  AdmissionOptions options_;
  obs::MetricsRegistry* metrics_;
  std::size_t in_service_ = 0;
  std::size_t total_queued_ = 0;
  /// Ordered by tenant id: deterministic round-robin scan order.
  std::map<std::uint64_t, std::deque<Waiter*>> queues_;
  /// Last tenant granted a slot from the queue; the pump resumes scanning
  /// strictly after it (wrapping), so tenants share slots fairly.
  std::uint64_t rr_cursor_ = 0;
  bool rr_valid_ = false;
  /// Bumped by reset(); stale tickets compare and do nothing.
  std::uint64_t generation_ = 0;
};

inline void AdmissionTicket::release() noexcept {
  if (controller_ != nullptr && admitted_) {
    controller_->release_slot(generation_);
  }
  controller_ = nullptr;
  admitted_ = false;
}

}  // namespace weakset
