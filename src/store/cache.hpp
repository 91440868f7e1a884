#pragma once

// ObjectCache: a client-side LRU cache of object payloads.
//
// The paper leans on caching twice: an iterator "might keep a cached
// version, which is a way to implement a history object" (section 3), and
// "cached data may be stale" is one of the two sources of weak behaviour
// (section 3's failure discussion). This cache makes both concrete: hits
// avoid the wide-area fetch entirely, cached objects remain accessible when
// their homes are partitioned away, and staleness is unbounded: an entry is
// served until it is evicted or invalidated.

#include <cassert>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "store/object.hpp"

namespace weakset {

struct CacheOptions {
  /// Maximum resident entries; least-recently-used beyond that are evicted.
  std::size_t capacity = 256;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

class ObjectCache {
 public:
  explicit ObjectCache(CacheOptions options = {}) : options_(options) {
    assert(options_.capacity > 0);
  }

  /// Cached value for `ref`, touching it as most-recently-used.
  std::optional<VersionedValue> get(ObjectRef ref) {
    const auto it = index_.find(ref);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch
    return it->second->value;
  }

  /// True iff `ref` is resident (without touching LRU order).
  [[nodiscard]] bool contains(ObjectRef ref) const {
    return index_.find(ref) != index_.end();
  }

  /// Inserts or refreshes an entry.
  void put(ObjectRef ref, VersionedValue value) {
    const auto it = index_.find(ref);
    if (it != index_.end()) {
      it->second->value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.push_front(Entry{ref, std::move(value)});
    index_[ref] = lru_.begin();
    if (lru_.size() > options_.capacity) {
      ++stats_.evictions;
      index_.erase(lru_.back().ref);
      lru_.pop_back();
    }
  }

  /// Drops an entry (e.g. on an invalidation callback).
  void invalidate(ObjectRef ref) {
    const auto it = index_.find(ref);
    if (it == index_.end()) return;
    lru_.erase(it->second);
    index_.erase(it);
  }

  void clear() {
    lru_.clear();
    index_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return lru_.size(); }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    ObjectRef ref;
    VersionedValue value;
  };

  CacheOptions options_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<ObjectRef, std::list<Entry>::iterator> index_;
  CacheStats stats_;
};

}  // namespace weakset
