#pragma once

// BlockEngine: the block storage engine (DESIGN.md decision 17). One engine
// per server owns a shared LRU page cache (BlockCache) and, per hosted
// collection, a block file (BlockManager) holding the collection's members
// as hash-partitioned leaf buckets under a root table — a two-level
// WiredTiger-style checkpoint tree:
//
//   superblock (atomic file)  →  root table (extent)  →  leaf buckets
//     proto counters, free        bucket → extent          (object, home)
//     list, root pointer          for every bucket          member pairs
//
// Incremental checkpoints are shadow-paged: a checkpoint rewrites only the
// cache-dirty leaves plus the root, syncs the device, then publishes the new
// root atomically through the superblock. Superseded extents retire and only
// re-enter the free list once a publish proves no durable root references
// them. A crash mid-checkpoint therefore always leaves the previous root
// intact: recovery loads the superblock + root (nothing else) and replays
// the WAL tail, faulting only the buckets the tail touches — recovery cost
// is bounded by the dirty set, not the collection size.
//
// Everything stays on the virtual clock and is deterministic: map-ordered
// iteration, seeded SimDisk lottery, logical page keys. The engine speaks
// raw (object, home) u64 pairs so weakset_block stays below the store layer.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "block/block_cache.hpp"
#include "block/block_manager.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"
#include "wal/sim_disk.hpp"

namespace weakset::block {

/// Knobs of the block storage engine, nested in the store server's
/// DurabilityOptions. Default-off: every pre-existing scenario (and all
/// committed bench baselines) runs the whole-file checkpoint path untouched.
struct BlockStorageOptions {
  /// Master switch: route collection membership through the block engine.
  bool enabled = false;
  /// Physical block size in bytes (12 of which are the checksummed header).
  std::uint32_t block_size = 4096;
  /// Shared per-server page-cache budget: the working set a server keeps in
  /// memory, however large the on-disk collections grow.
  std::uint64_t cache_bytes = 256 * 1024;
  /// Leaf buckets per collection. Recovery reads O(buckets) root entries and
  /// a fault reads one bucket, so size this to keep buckets a few blocks:
  /// ~members / 128 is a good target.
  std::uint32_t buckets = 64;
  /// Background compaction cadence on the sim clock (0 disables the daemon).
  Duration compaction_interval = Duration::millis(500);
  /// Allocatable-free fraction of the file that triggers compaction moves.
  double fragmentation_threshold = 0.35;
  /// Files smaller than this many blocks are never compacted.
  std::uint64_t compaction_min_blocks = 64;
};

/// The per-collection protocol counters riding in the superblock — what the
/// whole-file checkpoint codec kept in CollectionImage, minus the members.
struct ProtoState {
  std::uint64_t incarnation = 1;
  std::uint64_t version = 0;
  std::uint64_t last_seq = 0;
  std::uint64_t applied_seq = 0;
  /// WAL index the publishing checkpoint covered (diagnostic cursor).
  std::uint64_t wal_upto = 0;
};

/// The page codec, in wal.hpp's integers: a leaf page is a u32 member count
/// and that many (object, home) pairs; a root page is a u32 bucket count and
/// that many (first block u64, block count u32) extents. Decoding returns
/// nullopt on a short or overlong page and on a count the page cannot hold.
[[nodiscard]] std::string encode_leaf(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& members);
std::optional<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
decode_leaf(std::string_view bytes);
[[nodiscard]] std::string encode_root(const std::vector<Extent>& buckets);
/// Also nullopt for a root without buckets.
[[nodiscard]] std::optional<std::vector<Extent>> decode_root(
    std::string_view bytes);

class BlockEngine {
 public:
  BlockEngine(Simulator& sim, SimDisk& disk, const BlockStorageOptions& options,
              obs::MetricsRegistry& metrics);
  BlockEngine(const BlockEngine&) = delete;
  BlockEngine& operator=(const BlockEngine&) = delete;

  /// Registers a collection (idempotent). Buckets default from options.
  void add_collection(std::uint64_t id);
  [[nodiscard]] bool manages(std::uint64_t id) const {
    return colls_.count(id) > 0;
  }

  // --- synchronous membership (page-cache peeks fault misses in free of
  // simulated time; the RPC data path charges the read by calling fault()
  // first) -----------------------------------------------------------------

  bool insert(std::uint64_t id, std::uint64_t object, std::uint64_t home);
  bool erase(std::uint64_t id, std::uint64_t object, std::uint64_t home);
  [[nodiscard]] bool contains(std::uint64_t id, std::uint64_t object,
                              std::uint64_t home);
  [[nodiscard]] std::uint64_t size(std::uint64_t id) const;
  /// Full membership in bucket-major stored order (deterministic). Reads
  /// evicted buckets via free peeks without polluting the cache.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  materialize(std::uint64_t id) const;
  /// Replaces the whole membership (snapshot install / migration adoption):
  /// previous extents retire, the new members land resident and dirty.
  void assign(std::uint64_t id,
              const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                  members);

  // --- timed paths ---------------------------------------------------------

  /// Makes the member's bucket resident, charging the extent read on a miss
  /// and evicting (with dirty write-back) down to the cache budget.
  Task<void> fault(std::uint64_t id, std::uint64_t object, std::uint64_t home);
  Task<void> fault_many(
      std::uint64_t id,
      std::vector<std::pair<std::uint64_t, std::uint64_t>> refs);

  /// Incremental checkpoint: rewrite dirty leaves + root (captured at entry,
  /// one instant), sync, publish the superblock atomically. False if a crash
  /// interrupted — the previous root stays live.
  Task<bool> checkpoint(std::uint64_t id, const ProtoState& proto);

  /// One background compaction round: relocates up to kCompactionMaxMoves
  /// live extents downward when fragmentation exceeds the threshold.
  /// Returns the number of moves (the caller arms a checkpoint when > 0).
  Task<std::uint32_t> compact_round(std::uint64_t id);

  // --- crash / recovery ----------------------------------------------------

  /// Amnesia: drops every volatile structure (cache, tables, allocators) and
  /// starts recovery-read accounting. Durable state is untouched.
  void wipe();
  /// Crash-side reconstruction (zero time): loads the superblock + root via
  /// peeks, restores the allocator (sweeping leaked unreferenced blocks),
  /// and leaves leaves on disk — WAL-tail replay faults in what it touches.
  /// nullopt if no checkpoint was ever published.
  std::optional<ProtoState> reconstruct(std::uint64_t id);
  /// Restart-side: charges one read for every byte reconstruction peeked
  /// (superblock, root, replay-faulted leaves), then stops accounting.
  Task<void> charge_recovery_reads();

  // --- introspection -------------------------------------------------------

  [[nodiscard]] std::uint64_t resident_bytes() const {
    return cache_.resident_bytes();
  }
  [[nodiscard]] std::uint64_t cache_budget() const { return cache_.budget(); }
  [[nodiscard]] std::uint64_t file_blocks(std::uint64_t id) const;
  [[nodiscard]] std::uint64_t free_blocks(std::uint64_t id) const;
  [[nodiscard]] std::uint64_t recovery_bytes() const {
    return recovery_bytes_;
  }
  [[nodiscard]] const BlockStorageOptions& options() const noexcept {
    return options_;
  }
  /// Synchronously drops clean unpinned LRU pages down to the budget (the
  /// checkpoint epilogue: freshly written leaves are clean and droppable).
  void trim_clean();

 private:
  struct Coll {
    Coll(SimDisk& disk, std::string device, std::uint32_t block_size,
         std::uint32_t nbuckets)
        : mgr(disk, std::move(device), block_size), buckets(nbuckets) {}
    BlockManager mgr;
    std::vector<Extent> buckets;   ///< current extent per leaf bucket
    Extent root;                   ///< current root-table extent
    std::set<std::uint32_t> dirty; ///< cache-dirty buckets (always resident)
    std::uint64_t members = 0;
    std::uint64_t generation = 0;  ///< published checkpoint generation
  };

  Coll& coll(std::uint64_t id);
  [[nodiscard]] const Coll& coll(std::uint64_t id) const;
  [[nodiscard]] std::uint32_t bucket_of(const Coll& c, std::uint64_t object,
                                        std::uint64_t home) const;
  /// The resident page for a bucket, peek-faulting a miss (free).
  Page& resident(std::uint64_t id, Coll& c, std::uint32_t bucket);
  /// Evicts unpinned LRU pages (timed dirty write-backs) until under budget.
  Task<void> enforce_budget();
  void mark_dirty(Coll& c, std::uint32_t bucket, Page& page);
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
  load_bucket(const Coll& c, std::uint32_t bucket) const;

  Simulator& sim_;
  SimDisk& disk_;
  BlockStorageOptions options_;
  obs::MetricsRegistry& metrics_;
  BlockCache cache_;
  // std::map: wipe/iteration order is deterministic.
  std::map<std::uint64_t, std::unique_ptr<Coll>> colls_;
  /// Bumped by wipe(); coroutines suspended across it abandon their work.
  std::uint64_t wipe_generation_ = 0;
  std::uint64_t recovery_bytes_ = 0;
  bool recovery_accounting_ = false;
};

}  // namespace weakset::block
