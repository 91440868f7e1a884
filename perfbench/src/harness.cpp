#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <set>

namespace weakset::perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream): distinct streams get unrelated seeds.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// -- Tracer -------------------------------------------------------------------

std::uint64_t Tracer::begin(const char* name, std::uint64_t op,
                            std::uint64_t parent, SimTime at,
                            std::uint64_t arg) {
  if (!enabled_) return 0;
  SpanRecord span;
  span.op = op;
  span.parent = parent;
  span.name = name;
  span.start = at;
  span.end = at;
  span.arg = arg;
  spans_.push_back(span);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out{path};
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double ts = static_cast<double>(s.start.count_nanos()) / 1e3;
    const double dur =
        static_cast<double>((s.end - s.start).count_nanos()) / 1e3;
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.op
        << ", \"ts\": " << ts << ", \"dur\": " << dur
        << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << s.parent
        << ", \"arg\": " << s.arg << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// -- Samples / Ledger / Bench -------------------------------------------------

double Samples::percentile_ms(double q) const {
  if (ns_.empty()) return 0.0;
  std::vector<std::int64_t> sorted = ns_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]) / 1e6;
}

void Ledger::count(bool success, std::optional<FailureKind> why) {
  ++attempted;
  if (success) {
    ++ok;
  } else if (why == FailureKind::kOverloaded) {
    ++overloaded;
  } else {
    ++failed;
  }
}

void Ledger::add(const Ledger& other) {
  attempted += other.attempted;
  ok += other.ok;
  overloaded += other.overloaded;
  failed += other.failed;
}

void Bench::violation(const std::string& what) {
  ++violations;
  if (violations <= 8) std::cerr << "spec violation: " << what << "\n";
}

// -- TracedView ---------------------------------------------------------------

Task<Result<std::vector<ObjectRef>>> TracedView::read_members() {
  ++reads_in_next_;
  Simulator& s = inner_.sim();
  const std::uint64_t span =
      bench_.tracer.begin("read_members", op_, next_span_, s.now());
  Result<std::vector<ObjectRef>> result = co_await inner_.read_members();
  bench_.tracer.end(span, s.now());
  if (!result) last_read_failure_ = result.error().kind;
  co_return result;
}

// fetch and fetch_many touch nothing of the view after their co_await: the
// prefetcher's quiesce awaits only the batches still in its window, so a
// batch whose entries were invalidated can resume after the iterator, and
// this view, are gone.

Task<Result<VersionedValue>> TracedView::fetch(ObjectRef ref) {
  Tracer& tracer = bench_.tracer;
  Simulator& s = inner_.sim();
  const std::uint64_t span = tracer.begin("fetch", op_, next_span_, s.now(), 1);
  Result<VersionedValue> result = co_await inner_.fetch(ref);
  tracer.end(span, s.now());
  co_return result;
}

Task<std::vector<Result<VersionedValue>>> TracedView::fetch_many(
    std::vector<ObjectRef> refs) {
  Tracer& tracer = bench_.tracer;
  Simulator& s = inner_.sim();
  const std::uint64_t span =
      tracer.begin("fetch_many", op_, next_span_, s.now(), refs.size());
  std::vector<Result<VersionedValue>> out =
      co_await inner_.fetch_many(std::move(refs));
  tracer.end(span, s.now());
  co_return out;
}

// -- timed calls --------------------------------------------------------------

Task<Result<bool>> timed_write(Bench& bench, RepositoryClient& client,
                               CollectionId id, ObjectRef ref, bool add) {
  Simulator& sim = bench.sim;
  const SimTime start = sim.now();
  const std::uint64_t span = bench.tracer.begin(
      add ? "add" : "remove", bench.tracer.next_op(), 0, start);
  Result<bool> result{false};
  if (add) {
    result = co_await client.add(id, ref);
  } else {
    result = co_await client.remove(id, ref);
  }
  bench.tracer.end(span, sim.now());
  if (result) {
    if (bench.measuring) bench.writes.add(sim.now() - start);
    bench.ops.count(true, std::nullopt);
  } else {
    bench.ops.count(false, result.error().kind);
  }
  co_return result;
}

namespace {

bool subset(const std::set<ObjectRef>& a, const std::set<ObjectRef>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// Violations of Fig 6 when an invocation may act on any state between its
/// pre- and post-state, not only on those two. check_fig6's witness rule
/// takes the two boundary states; under heavy churn the state an
/// invocation actually read often lies strictly between them.
std::size_t fig6_interval_violations(const spec::IterationTrace& trace,
                                     const spec::MembershipTimeline& timeline) {
  std::size_t violations = 0;
  std::set<ObjectRef> yielded;
  for (const spec::InvocationRecord& inv : trace.invocations()) {
    const SimTime pre = inv.pre_time();
    const SimTime post = inv.post_time();
    switch (inv.outcome()) {
      case spec::StepOutcome::kSuspended: {
        const ObjectRef e = *inv.element();
        // Reachability is observed only for members: unreachable is known
        // when e was a member, and out of reach, at both boundaries.
        const bool known_unreachable =
            inv.pre().contains(e) && !inv.pre().can_reach(e) &&
            inv.post().contains(e) && !inv.post().can_reach(e);
        if (!yielded.insert(e).second || known_unreachable ||
            !timeline.present_in_window(e, pre, post)) {
          ++violations;
        }
        break;
      }
      case spec::StepOutcome::kReturned: {
        std::set<ObjectRef> value = timeline.value_at(pre);
        bool covered = subset(value, yielded);
        for (const spec::TimelineEvent& event : timeline.events()) {
          if (covered || event.at() > post) break;
          if (event.at() <= pre) continue;
          if (event.kind() == CollectionOp::Kind::kAdd) {
            value.insert(event.ref());
          } else {
            value.erase(event.ref());
          }
          covered = subset(value, yielded);
        }
        if (!covered) ++violations;
        break;
      }
      case spec::StepOutcome::kFailed:
        ++violations;
        break;
      case spec::StepOutcome::kBlocked:
        break;
    }
  }
  for (const ObjectRef e : trace.yield_sequence()) {
    if (!timeline.present_in_window(e, trace.first_time(),
                                    trace.last_time())) {
      ++violations;
    }
  }
  return violations;
}

/// Checks one finished trace against its figure's predicate.
void check_trace(Bench& bench, const spec::IterationTrace& trace,
                 Semantics semantics,
                 const spec::MembershipTimeline* timeline) {
  const auto started = WallClock::now();
  std::optional<spec::SpecReport> report;
  switch (semantics) {
    case Semantics::kFig5GrowOnlyPessimistic:
      report.emplace(spec::check_fig5(trace));
      break;
    case Semantics::kFig6Optimistic:
      report.emplace(spec::check_fig6(trace, *timeline));
      break;
    default:
      report.emplace(spec::check_fig1(trace));
      break;
  }
  bool satisfied = report->satisfied();
  if (!satisfied && semantics == Semantics::kFig6Optimistic &&
      fig6_interval_violations(trace, *timeline) == 0) {
    satisfied = true;
    ++bench.interval_witness_runs;
  }
  bench.check_wall_s += wall_since(started);
  ++bench.runs_checked;
  bench.invocations_recorded += trace.invocations().size();
  if (!satisfied) {
    bench.violation(report->name() + ": " +
                    (report->violations().empty()
                         ? std::string{"(no message)"}
                         : report->violations().front()));
  }
}

/// One invocation of a hand-built trace: [pre, post] in milliseconds.
struct GateStep {
  int pre_ms;
  int post_ms;
  spec::StepOutcome outcome;
  std::optional<ObjectRef> element;
};

struct GateCase {
  const char* name;
  bool valid;
  std::vector<GateStep> steps;
};

SimTime at_ms(int ms) { return SimTime::zero() + Duration::millis(ms); }

}  // namespace

int gate_selfcheck() {
  const auto ref = [](std::uint64_t id) {
    return ObjectRef{ObjectId{id}, NodeId{0}};
  };
  const ObjectRef a = ref(1);
  const ObjectRef b = ref(2);
  const ObjectRef c = ref(3);
  const ObjectRef d = ref(4);  // a member from 5 ms to 7 ms only
  const ObjectRef e = ref(5);  // never a member
  spec::MembershipTimeline timeline;
  timeline.set_initial({a, b, c});
  timeline.record(at_ms(5), CollectionOp::Kind::kAdd, d);
  timeline.record(at_ms(7), CollectionOp::Kind::kRemove, d);

  using spec::StepOutcome;
  constexpr StepOutcome kYield = StepOutcome::kSuspended;
  constexpr StepOutcome kReturn = StepOutcome::kReturned;
  const std::vector<GateCase> cases = {
      {"all members once", true,
       {{10, 11, kYield, a},
        {20, 21, kYield, b},
        {30, 31, kYield, c},
        {40, 41, kReturn, std::nullopt}}},
      // d is a member only strictly inside the invocation that yields it.
      {"member only inside the invocation", true,
       {{4, 8, kYield, d},
        {10, 11, kYield, a},
        {20, 21, kYield, b},
        {30, 31, kYield, c},
        {40, 41, kReturn, std::nullopt}}},
      {"duplicate yield", false,
       {{10, 11, kYield, a},
        {20, 21, kYield, a},
        {30, 31, kYield, b},
        {40, 41, kYield, c},
        {50, 51, kReturn, std::nullopt}}},
      {"returned while an unyielded member stayed present", false,
       {{10, 11, kYield, a},
        {20, 21, kYield, b},
        {30, 31, kReturn, std::nullopt}}},
      {"yield of an element never present", false,
       {{10, 11, kYield, a},
        {20, 21, kYield, b},
        {30, 31, kYield, c},
        {40, 41, kYield, e},
        {50, 51, kReturn, std::nullopt}}},
      {"failed invocation", false,
       {{10, 11, kYield, a}, {20, 21, StepOutcome::kFailed, std::nullopt}}},
  };

  const auto observe = [&timeline](SimTime t) {
    std::set<ObjectRef> members = timeline.value_at(t);
    return spec::SetObservation{members, members};
  };
  int wrong = 0;
  for (const GateCase& gate_case : cases) {
    const std::set<ObjectRef> first = timeline.value_at(at_ms(0));
    std::vector<spec::InvocationRecord> invocations;
    for (const GateStep& step : gate_case.steps) {
      invocations.emplace_back(at_ms(step.pre_ms), observe(at_ms(step.pre_ms)),
                               first, at_ms(step.post_ms),
                               observe(at_ms(step.post_ms)), first,
                               step.outcome, step.element);
    }
    const spec::IterationTrace trace{at_ms(0), observe(at_ms(0)),
                                     std::move(invocations)};
    Simulator sim;
    Tracer tracer{false};
    Bench bench{sim, tracer};
    check_trace(bench, trace, Semantics::kFig6Optimistic, &timeline);
    const bool accepted = bench.violations == 0;
    if (accepted != gate_case.valid) ++wrong;
    std::cout << (accepted == gate_case.valid ? "ok   " : "FAIL ")
              << gate_case.name << ": "
              << (accepted ? "accepted" : "rejected")
              << (bench.interval_witness_runs > 0 ? " (interval witness)" : "")
              << "\n";
  }
  return wrong;
}

Task<void> run_iterate(Bench& bench, RepositoryClient& client,
                       CollectionId id, Semantics semantics,
                       const spec::MembershipTimeline* timeline,
                       bool count_each_next, const IterateKnobs& knobs) {
  Simulator& sim = bench.sim;
  TracedView view{bench, client, id};
  spec::RepoGroundTruth truth{client.repo(), id, client.node()};
  spec::TraceRecorder recorder{truth};
  IteratorOptions options;
  options.recorder = &recorder;
  options.enforce_grow_only =
      semantics == Semantics::kFig5GrowOnlyPessimistic;
  options.retry = RetryPolicy{knobs.max_attempts, knobs.retry_interval};
  options.prefetch_window = knobs.prefetch_window;
  std::unique_ptr<ElementsIterator> iterator =
      make_elements_iterator(view, semantics, options);

  const std::uint64_t op = bench.tracer.next_op();
  const std::uint64_t run_span = bench.tracer.begin("iterate", op, 0,
                                                    sim.now());
  // Why the run ended unsuccessfully (nullopt: it finished).
  std::optional<FailureKind> run_failure;
  bool first = true;
  for (;;) {
    const SimTime invoked = sim.now();
    const std::uint64_t span = bench.tracer.begin("next", op, run_span,
                                                  invoked);
    view.enter_next(op, span);
    const Step step = co_await iterator->next();
    bench.tracer.end(span, sim.now());
    if (view.reads_in_next() > 1) {
      bench.blocked_retries += view.reads_in_next() - 1;
    }
    if (bench.measuring) {
      bench.nexts.add(sim.now() - invoked);
      if (first && step.is_yield()) bench.first_yields.add(sim.now() - invoked);
    }
    first = false;

    if (step.is_failure()) {
      run_failure = step.failure().kind;
      if (run_failure == FailureKind::kExhausted &&
          view.last_read_failure() == FailureKind::kOverloaded) {
        run_failure = FailureKind::kOverloaded;  // blocked by shedding
      }
    }
    if (count_each_next) bench.ops.count(!step.is_failure(), run_failure);
    if (!step.is_yield()) break;
  }
  bench.tracer.end(run_span, sim.now());
  if (!count_each_next) bench.ops.count(!run_failure, run_failure);
  check_trace(bench, recorder.finish(), semantics, timeline);
}

// -- ReplicatedSets -----------------------------------------------------------

ReplicatedSets::ReplicatedSets(Bench& bench, Repository& repo,
                               const std::vector<NodeId>& servers,
                               const std::vector<NodeId>& writer_nodes,
                               const ReplicatedConfig& config,
                               std::uint64_t seed)
    : bench_(bench), repo_(repo), config_(config) {
  assert(servers.size() >= 4 && !writer_nodes.empty());
  const NodeId victim = servers[3];
  for (std::size_t c = 0; c < kHomePrimarySets + kOrSetSets; ++c) {
    auto set = std::make_unique<Set>();
    set->mode = c < kHomePrimarySets ? ReplicationMode::kHomePrimary
                                     : ReplicationMode::kOrSet;
    set->hosts = {servers[c % 3], victim, servers[(c + 1) % 3]};
    set->durable_acks = std::all_of(
        set->hosts.begin(), set->hosts.end(), [&repo](NodeId host) {
          return repo.server_at(host)->options().durability.durable_acks;
        });
    set->id = repo.create_collection({set->hosts[0]}, set->mode);
    repo.add_replica(set->id, 0, set->hosts[1]);
    repo.add_replica(set->id, 0, set->hosts[2]);
    for (std::size_t i = 0; i < config.pool; ++i) {
      const ObjectRef ref = repo.create_object(
          servers[i % servers.size()],
          "rs" + std::to_string(c) + "-" + std::to_string(i));
      set->pool.push_back(ref);
      if (i % 2 != 0) continue;  // the even half starts as members
      if (set->mode == ReplicationMode::kOrSet) {
        for (const NodeId host : set->hosts) {
          repo.server_at(host)->seed_orset_member(set->id, ref);
        }
      } else {
        repo.seed_member(set->id, ref);
      }
    }
    set->probe = std::make_unique<spec::TimelineProbe>(repo, set->id);
    for (std::size_t w = 0; w < writer_nodes.size(); ++w) {
      auto writer = std::make_unique<Writer>();
      writer->set = c;
      writer->node = writer_nodes[w];
      for (std::size_t i = w; i < set->pool.size(); i += writer_nodes.size()) {
        writer->refs.push_back(set->pool[i]);
        writer->state.push_back(i % 2 == 0 ? RefState::kPresent
                                           : RefState::kAbsent);
      }
      writer->seed = derive_seed(seed, writers_.size());
      writers_.push_back(std::move(writer));
    }
    sets_.push_back(std::move(set));
  }
}

void ReplicatedSets::start() {
  for (std::size_t i = 0; i < writers_.size(); ++i) {
    bench_.sim.spawn(writer_loop(*this, i));
  }
}

Task<void> ReplicatedSets::writer_loop(ReplicatedSets& self,
                                       std::size_t index) {
  Writer& writer = *self.writers_[index];
  Set& set = *self.sets_[writer.set];
  Bench& bench = self.bench_;
  Simulator& sim = bench.sim;
  ClientOptions copts;
  copts.rpc_timeout = Duration::seconds(1);
  // Primary reads: Fig 6 is judged against the primary's state, which a
  // lagging replica would not show.
  copts.read_policy = ReadPolicy::kPrimaryOnly;
  RepositoryClient client{self.repo_, writer.node, copts};
  Rng rng{writer.seed};
  while (!self.stopping_) {
    if (self.paused_) {
      co_await sim.delay(Duration::millis(1));
      continue;
    }
    ++self.busy_;
    // Drains run on home-primary sets only: an OR-Set read sees one host,
    // while its ground truth is the union of all hosts.
    if (set.mode == ReplicationMode::kHomePrimary &&
        self.config_.iterate_share > 0.0 &&
        rng.bernoulli(self.config_.iterate_share)) {
      const spec::MembershipTimeline* timeline = &set.probe->timeline();
      const IterateKnobs knobs{50, Duration::millis(100), 8};
      co_await run_iterate(bench, client, set.id, Semantics::kFig6Optimistic,
                           timeline, /*count_each_next=*/false, knobs);
    } else {
      const auto i = static_cast<std::size_t>(rng.uniform(writer.refs.size()));
      const RefState state = writer.state[i];
      const bool add = state == RefState::kUnknown ? rng.bernoulli(0.5)
                                                   : state == RefState::kAbsent;
      const Result<bool> result =
          co_await timed_write(bench, client, set.id, writer.refs[i], add);
      if (!result) {
        writer.state[i] = RefState::kUnknown;
      } else if (add && !result.value() &&
                 set.mode == ReplicationMode::kOrSet) {
        // The host already held the element, so the add minted no dot of
        // its own: a remove issued earlier at another host, which killed
        // the dots it had seen, still deletes the element when it arrives.
        writer.state[i] = RefState::kUnknown;
        ++bench.orset_noop_adds;
      } else {
        writer.state[i] = add ? RefState::kPresent : RefState::kAbsent;
      }
    }
    --self.busy_;
    co_await sim.delay(rng.exponential(self.config_.think));
  }
  ++self.exited_;
}

std::vector<ObjectRef> ReplicatedSets::host_members(const Set& set,
                                                    NodeId host) const {
  std::vector<ObjectRef> members;
  StoreServer* server = repo_.server_at(host);
  if (set.mode == ReplicationMode::kOrSet) {
    if (const crdt::OrSet* state = server->orset_state(set.id)) {
      members = state->members();
    }
  } else if (const CollectionState* state = server->collection(set.id)) {
    members = state->members();
  }
  std::sort(members.begin(), members.end());
  return members;
}

bool ReplicatedSets::set_agrees(std::size_t index) const {
  const Set& set = *sets_[index];
  std::optional<std::vector<ObjectRef>> first;
  for (const NodeId host : set.hosts) {
    if (!repo_.topology().is_up(host) || !repo_.server_at(host)->serving()) {
      return false;
    }
    std::vector<ObjectRef> members = host_members(set, host);
    if (!first) {
      first = std::move(members);
    } else if (members != *first) {
      return false;
    }
  }
  return true;
}

bool ReplicatedSets::hosts_agree() const {
  for (std::size_t i = 0; i < sets_.size(); ++i) {
    if (!set_agrees(i)) return false;
  }
  return true;
}

void ReplicatedSets::final_check() {
  for (const auto& set : sets_) {
    if (set->mode == ReplicationMode::kOrSet) {
      const spec::SpecReport report = spec::check_converged(
          spec::orset_fragment_members(repo_, set->id, 0));
      if (!report.satisfied()) {
        bench_.violation(report.name() + ": " + report.violations().front());
      }
      continue;
    }
    const std::vector<ObjectRef> primary = host_members(*set, set->hosts[0]);
    for (std::size_t h = 1; h < set->hosts.size(); ++h) {
      if (host_members(*set, set->hosts[h]) != primary) {
        bench_.violation("replica catch-up: a replica of collection " +
                         std::to_string(set->id.raw()) +
                         " differs from its primary");
      }
    }
  }
  for (const auto& writer : writers_) {
    const Set& set = *sets_[writer->set];
    const bool orset = set.mode == ReplicationMode::kOrSet;
    // Home-primary: the primary decides. OR-Set: an acked add must be on
    // every host once converged (a remove may lose to an add its host had
    // not seen, which is the OR-Set's defined behaviour, so removes are
    // not checked there).
    const std::size_t hosts = orset ? set.hosts.size() : 1;
    for (std::size_t h = 0; h < hosts; ++h) {
      const std::vector<ObjectRef> members =
          host_members(set, set.hosts[h]);
      const std::set<ObjectRef> have(members.begin(), members.end());
      for (std::size_t i = 0; i < writer->refs.size(); ++i) {
        const bool present = have.count(writer->refs[i]) > 0;
        if (writer->state[i] == RefState::kPresent && !present) {
          if (set.durable_acks) {
            bench_.violation("acknowledged add lost on collection " +
                             std::to_string(set.id.raw()));
          } else {
            ++bench_.acked_writes_lost;
          }
        } else if (!orset && writer->state[i] == RefState::kAbsent &&
                   present) {
          bench_.violation("acknowledged remove undone on collection " +
                           std::to_string(set.id.raw()));
        }
      }
    }
  }
}

// -- fault script -------------------------------------------------------------

void run_fault_rounds(Bench& bench, Repository& repo,
                      const std::vector<NodeId>& servers, NodeId victim,
                      ReplicatedSets& sets, int rounds) {
  const Duration gap = Duration::millis(200);  // before each fault
  // Longer than the RPC layer's 2 s default timeout, so a replica pull cut
  // in flight has failed before the heal, and converge_ms times
  // anti-entropy rather than that timeout.
  const Duration partition_length = Duration::millis(2500);
  const Duration outage = Duration::millis(100);
  Simulator& sim = repo.sim();
  Topology& topo = repo.topology();
  const auto cut = [&](bool up) {
    for (const NodeId server : servers) {
      if (server != victim) topo.set_link_up(victim, server, up);
    }
  };
  const Duration limit = Duration::seconds(60);
  for (int round = 0; round < rounds; ++round) {
    sim.run_until(sim.now() + gap);
    const std::uint64_t op = bench.tracer.next_op();
    const std::uint64_t partition =
        bench.tracer.begin("partition", op, 0, sim.now());
    cut(false);
    sim.run_until(sim.now() + partition_length);
    // Quiesce the writers first, so the clock below times anti-entropy
    // alone, not writes still in flight.
    sets.set_paused(true);
    if (!run_until_true(sim, [&] { return sets.idle(); },
                        Duration::micros(100), limit)) {
      bench.violation("writers did not quiesce");
    }
    cut(true);
    bench.tracer.end(partition, sim.now());
    const SimTime healed = sim.now();
    const std::uint64_t converge =
        bench.tracer.begin("converge", op, 0, healed);
    // One sample per collection: the time until its hosts agree.
    std::vector<bool> agreed(sets.size(), false);
    std::size_t pending = sets.size();
    const bool converged = run_until_true(
        sim,
        [&] {
          for (std::size_t i = 0; i < agreed.size(); ++i) {
            if (agreed[i] || !sets.set_agrees(i)) continue;
            agreed[i] = true;
            --pending;
            bench.converge_ms.push_back((sim.now() - healed).as_millis());
          }
          return pending == 0;
        },
        Duration::micros(50), limit);
    if (!converged) {
      bench.violation("hosts did not converge after the partition healed");
    }
    bench.tracer.end(converge, sim.now());
    sets.set_paused(false);

    sim.run_until(sim.now() + gap);
    const std::uint64_t crash = bench.tracer.begin(
        "crash_restart", bench.tracer.next_op(), 0, sim.now());
    topo.crash(victim, Topology::CrashKind::kAmnesia);
    sim.run_until(sim.now() + outage);
    topo.restart(victim);
    const SimTime restarted = sim.now();
    StoreServer* server = repo.server_at(victim);
    if (run_until_true(sim, [&] { return server->serving(); },
                       Duration::micros(10), limit)) {
      bench.recovery_ms.push_back((sim.now() - restarted).as_millis());
    } else {
      bench.violation("server did not recover after restart");
    }
    bench.tracer.end(crash, sim.now());
  }
}

void finish_sets(Bench& bench, ReplicatedSets& sets) {
  Simulator& sim = bench.sim;
  sets.stop();
  if (!run_until_true(sim, [&] { return sets.stopped(); },
                      Duration::millis(1), Duration::seconds(120))) {
    bench.violation("writers did not stop");
  }
  // Let anti-entropy finish; final_check reports any host still behind.
  run_until_true(sim, [&] { return sets.hosts_agree(); }, Duration::millis(1),
                 Duration::seconds(60));
  sets.final_check();
}

void Workload::end_main_phase(Bench& bench, SimTime started) {
  main_phase_ = bench.sim.now() - started;
  main_ops_ = bench.ops;
  bench.measuring = false;
}

}  // namespace weakset::perfbench
