#pragma once

// BlockManager: one collection's block file on a SimDisk block device
// (DESIGN.md decision 17). The WiredTiger-style bottom layer of the block
// storage engine:
//
//   * Fixed-size blocks. A logical payload (a serialized leaf bucket, the
//     root table) is split into block-sized chunks, each sealed with a
//     length + wal::checksum header; a half-written block from a torn
//     crash fails the checksum and the whole extent reads as nullopt.
//
//   * Extent allocation over a free-list. alloc_extent() takes the lowest
//     contiguous free run that fits (lowest-fit keeps the file dense, which
//     is what compaction leans on) and grows the file at the high-water mark
//     only when no run fits. free_extent() returns blocks for immediate
//     reuse; retire_extent() is for blocks the *durable* root still
//     references — they stage in a pending list and only become allocatable
//     after the next superblock publish proves nothing durable points at
//     them (shadow paging; see BlockEngine).
//
//   * Publish snapshots. prepare_publish() computes the free-list/high-water
//     image a superblock should record — current free list plus the staged
//     retirements, with the free tail trimmed off the file — without
//     mutating; commit_publish() applies exactly that image once the
//     superblock write succeeded.
//
// The manager is deliberately policy-free: what is live, what is dirty, and
// when to checkpoint belong to BlockEngine.

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "wal/sim_disk.hpp"

namespace weakset::block {

/// A contiguous run of blocks. nblocks == 0 means "no extent".
struct Extent {
  std::uint64_t first = 0;
  std::uint32_t nblocks = 0;

  [[nodiscard]] bool empty() const noexcept { return nblocks == 0; }
  friend bool operator==(const Extent&, const Extent&) = default;
};

class BlockManager {
 public:
  /// Bytes of header per physical block: u32 payload length + u64 checksum.
  static constexpr std::uint32_t kBlockHeader = 12;

  BlockManager(SimDisk& disk, std::string device, std::uint32_t block_size);
  BlockManager(const BlockManager&) = delete;
  BlockManager& operator=(const BlockManager&) = delete;

  /// Payload bytes one block carries.
  [[nodiscard]] std::uint32_t capacity() const noexcept {
    return block_size_ - kBlockHeader;
  }
  [[nodiscard]] std::uint32_t blocks_needed(std::uint64_t payload_bytes) const;

  /// Allocates a contiguous run (lowest fitting free run, else file growth).
  Extent alloc_extent(std::uint32_t nblocks);
  /// Like alloc_extent, but only if the run would sit strictly below
  /// `below`; nullopt otherwise (compaction must never move data upward).
  std::optional<Extent> alloc_extent_below(std::uint32_t nblocks,
                                           std::uint64_t below);
  /// Returns an extent nothing references (not even a durable root) for
  /// immediate reuse.
  void free_extent(Extent e);
  /// Stages an extent the durable superblock may still reference; it joins
  /// the free list after a publish whose snapshot happened *after* the
  /// retirement (two-phase: see begin_publish()).
  void retire_extent(Extent e);

  /// Splits `payload` into sealed blocks and writes them as one extent
  /// (timed; page-cache-buffered until sync()). False on crash.
  Task<bool> write(Extent e, const std::string& payload);
  /// Reads and verifies an extent, charging the read cost once. nullopt if
  /// any block is missing, checksum-corrupt (torn), or inconsistent.
  Task<std::optional<std::string>> read(Extent e);
  /// Same verification, free of charge (crash-time reconstruction).
  [[nodiscard]] std::optional<std::string> peek(Extent e) const;
  /// fsync barrier on the device.
  Task<bool> sync();

  /// Opens a publish cycle at the checkpoint's snapshot instant: extents
  /// retired so far move to the publishing set (the captured root cannot
  /// reference them — their supersessions happened before the snapshot).
  /// Extents retired *after* this call — an eviction superseding a leaf the
  /// in-flight root references — stay staged for the next cycle.
  void begin_publish();
  /// The free-list/high-water image the superblock should record: free ∪
  /// publishing, with the free tail trimmed off the file.
  struct PublishImage {
    std::uint64_t next_block = 0;
    /// Free runs as (first, nblocks), ascending.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> free_ranges;
  };
  [[nodiscard]] PublishImage prepare_publish() const;
  /// Closes the cycle once the superblock write succeeded: the publishing
  /// set becomes allocatable and the file shrinks to the published
  /// high-water mark. A crash before this point simply leaves the cycle
  /// unapplied — the previous superblock's image still holds.
  void commit_publish();

  /// Restores allocator state from a decoded superblock (recovery) or resets
  /// it (fresh file): drops all in-memory allocator state first.
  void restore(std::uint64_t next_block,
               const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                   free_ranges);

  [[nodiscard]] std::uint64_t file_blocks() const noexcept { return next_; }
  [[nodiscard]] std::uint64_t free_blocks() const noexcept {
    return free_.size();
  }
  [[nodiscard]] bool block_free(std::uint64_t b) const {
    return free_.count(b) > 0;
  }
  [[nodiscard]] std::uint64_t retired_blocks() const noexcept {
    return retired_.size() + publishing_.size();
  }
  /// Allocatable-free fraction of the file — the compaction trigger.
  [[nodiscard]] double fragmentation() const noexcept {
    return next_ == 0 ? 0.0
                      : static_cast<double>(free_.size()) /
                            static_cast<double>(next_);
  }
  [[nodiscard]] const std::string& device() const noexcept { return device_; }
  [[nodiscard]] SimDisk& disk() noexcept { return disk_; }

 private:
  [[nodiscard]] std::optional<std::uint64_t> find_run(
      std::uint32_t nblocks, std::uint64_t below) const;
  [[nodiscard]] static std::vector<std::pair<std::uint64_t, std::uint64_t>>
  ranges_of(const std::set<std::uint64_t>& blocks);
  [[nodiscard]] std::vector<std::string> seal_blocks(
      const std::string& payload) const;
  [[nodiscard]] static std::optional<std::string> unseal_blocks(
      const std::vector<std::optional<std::string>>& blocks);

  SimDisk& disk_;
  std::string device_;
  std::uint32_t block_size_;
  std::uint64_t next_ = 0;            ///< high-water mark (file size in blocks)
  std::set<std::uint64_t> free_;      ///< allocatable now
  std::set<std::uint64_t> retired_;   ///< staged for the next publish cycle
  std::set<std::uint64_t> publishing_;  ///< in the open publish cycle
};

}  // namespace weakset::block
