#include "crdt/orset.hpp"

#include <limits>

namespace weakset::crdt {

DotContext DotContext::from_parts(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& vector_entries,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& cloud_dots) {
  DotContext ctx;
  for (const auto& [origin, counter] : vector_entries) {
    ctx.vv_[origin] = counter;
  }
  for (const auto& [origin, counter] : cloud_dots) {
    ctx.cloud_.insert(Dot{origin, counter});
  }
  ctx.compact();
  return ctx;
}

void DotContext::add(Dot dot) {
  if (contains(dot)) return;
  const auto it = vv_.find(dot.origin());
  if (dot.counter() != (it == vv_.end() ? 0 : it->second) + 1) {
    cloud_.insert(dot);
    return;
  }
  // Extends the contiguous prefix. Every cloud dot already lies past a gap
  // in its origin's prefix, so only this origin's cloud can fold now: its
  // dots right after the new prefix, while the counters stay contiguous.
  std::uint64_t& prefix = vv_[dot.origin()];
  prefix = dot.counter();
  auto next = cloud_.lower_bound(Dot{dot.origin(), prefix + 1});
  while (next != cloud_.end() && *next == Dot{dot.origin(), prefix + 1}) {
    ++prefix;
    next = cloud_.erase(next);
  }
  // A full compact() also gives every origin that has cloud dots a vector
  // entry (counter 0 if none of its dots is contiguous). Keep that key set:
  // full-state replies ship and charge one entry per vector key.
  constexpr auto kLastCounter = std::numeric_limits<std::uint64_t>::max();
  for (auto first = cloud_.begin(); first != cloud_.end();
       first = cloud_.upper_bound(Dot{first->origin(), kLastCounter})) {
    vv_.try_emplace(first->origin(), 0);
  }
}

void DotContext::merge(const DotContext& other) {
  for (const auto& [origin, counter] : other.vector()) {
    auto& mine = vv_[origin];
    if (counter > mine) mine = counter;
  }
  cloud_.insert(other.cloud().begin(), other.cloud().end());
  compact();
}

void DotContext::compact() {
  // The cloud is sorted by (origin, counter), so one pass suffices: each
  // dot either extends its origin's prefix by exactly one, is already
  // covered, or stays in the cloud (a gap remains before it).
  for (auto it = cloud_.begin(); it != cloud_.end();) {
    auto& prefix = vv_[it->origin()];
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

std::vector<DotOp> OrSet::add(ObjectRef element) {
  if (contains(element)) return {};
  const Dot dot{origin_, ++counter_};
  std::vector<DotOp> ops;
  ops.emplace_back(DotOp::Kind::kInsert, element, dot);
  apply(ops.back());
  return ops;
}

std::vector<DotOp> OrSet::remove(ObjectRef element) {
  const auto it = live_.find(element);
  if (it == live_.end()) return {};
  std::vector<DotOp> ops;
  ops.reserve(it->second.size());
  for (const Dot dot : it->second) {
    ops.emplace_back(DotOp::Kind::kKill, element, dot);
  }
  for (const DotOp& op : ops) apply(op);
  return ops;
}

bool OrSet::apply(const DotOp& op) {
  if (op.kind() == DotOp::Kind::kInsert) {
    if (ctx_.contains(op.dot())) return false;  // seen (live or killed)
    ctx_.add(op.dot());
    auto& dots = live_[op.element()];
    dots.insert(op.dot());
    if (dots.size() == 1) ++version_;  // element appeared
    return true;
  }
  // Kill: cover the dot and drop it from the live store if present. A kill
  // whose insert we never saw still changes state — the context coverage is
  // what makes the insert a no-op when (if ever) it arrives.
  const auto it = live_.find(op.element());
  if (it != live_.end() && it->second.erase(op.dot()) > 0) {
    ctx_.add(op.dot());
    if (it->second.empty()) {
      live_.erase(it);
      ++version_;  // element disappeared
    }
    return true;
  }
  if (ctx_.contains(op.dot())) return false;  // already covered, already dead
  ctx_.add(op.dot());
  return true;
}

std::vector<DotOp> OrSet::join(const DotContext& remote_context,
                               const std::vector<DotOp>& remote_live) {
  std::vector<DotOp> applied;
  // Kills first: any of my live dots the peer's context covers but the
  // peer's live set lacks was removed somewhere — kill it here.
  std::set<Dot> remote_live_dots;
  for (const DotOp& op : remote_live) remote_live_dots.insert(op.dot());
  std::vector<DotOp> kills;
  for (const auto& [element, dots] : live_) {
    for (const Dot dot : dots) {
      if (remote_context.contains(dot) && remote_live_dots.count(dot) == 0) {
        kills.emplace_back(DotOp::Kind::kKill, element, dot);
      }
    }
  }
  for (const DotOp& op : kills) {
    if (apply(op)) applied.push_back(op);
  }
  // Then the peer's live dots we have not observed yet.
  for (const DotOp& op : remote_live) {
    const DotOp insert{DotOp::Kind::kInsert, op.element(), op.dot()};
    if (apply(insert)) applied.push_back(insert);
  }
  // Finally adopt the peer's full coverage, so dots born-and-killed on the
  // other side (never shipped as ops) are dead here too.
  ctx_.merge(remote_context);
  return applied;
}

std::vector<ObjectRef> OrSet::members() const {
  std::vector<ObjectRef> out;
  out.reserve(live_.size());
  for (const auto& [element, dots] : live_) out.push_back(element);
  return out;
}

std::vector<DotOp> OrSet::export_live() const {
  std::vector<DotOp> out;
  for (const auto& [element, dots] : live_) {
    for (const Dot dot : dots) {
      out.emplace_back(DotOp::Kind::kInsert, element, dot);
    }
  }
  return out;
}

}  // namespace weakset::crdt
