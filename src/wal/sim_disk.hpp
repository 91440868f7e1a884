#pragma once

// A simulated local disk on the virtual clock (DESIGN.md decision 11).
//
// Three kinds of durable object:
//
//   * Append-only logs: append_record() is pure memory (the OS page cache);
//     only sync() — the fsync — costs simulated time and advances the
//     durable frontier. Records keep *absolute* indices for their whole
//     life, so a WAL index is a stable durability cursor even after the
//     checkpointer truncates the durable prefix away.
//
//   * Atomic whole files (checkpoints): write_file() charges the write cost
//     and then replaces the content atomically — a crash mid-write leaves
//     the previous content intact, never a half-written file.
//
//   * Block devices (DESIGN.md decision 17): a flat array of addressable
//     blocks for the block storage engine. write_extent() charges the write
//     cost but leaves the bytes in the page cache; sync_device() is the
//     fsync barrier that makes every buffered extent durable. Reads see the
//     page-cache overlay, crashes see only what was synced — plus whatever
//     the lottery kept.
//
// crash() models power loss: every byte not yet fsynced is up for grabs. A
// seeded RNG decides how many pending records made it to the platter, and
// whether the first lost record was torn mid-write (reported to readers so
// recovery can count checksum-discarded tails). For block devices the same
// lottery keeps a prefix of the pending extent writes, and a torn extent
// lands a prefix of its blocks plus one half-written block — detectable only
// by the block layer's checksums. Atomic files always survive whole.
// Determinism: per-log and per-device draws iterate a std::map in key order.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace weakset {

struct SimDiskOptions {
  /// When a crash loses pending records, probability that the first lost
  /// record was additionally torn mid-sector (detected by checksum on read).
  double torn_tail_probability = 0.4;
  std::uint64_t seed = 0x0d15c;
};

class SimDisk {
 public:
  // The cost model.
  /// Per write/fsync issue.
  static constexpr Duration kWriteLatency = Duration::micros(50);
  static constexpr Duration kWritePerByte = Duration::nanos(15);
  /// The barrier itself.
  static constexpr Duration kFsyncLatency = Duration::micros(500);
  static constexpr Duration kReadLatency = Duration::micros(100);
  static constexpr Duration kReadPerByte = Duration::nanos(8);

  SimDisk(Simulator& sim, const SimDiskOptions& options)
      : sim_(sim), options_(options), rng_(options.seed) {}
  SimDisk(const SimDisk&) = delete;
  SimDisk& operator=(const SimDisk&) = delete;

  // --- append-only logs ---------------------------------------------------

  /// Appends one record to `file` (creating it on first use) and returns the
  /// record's absolute index. Costs no simulated time: the bytes sit in the
  /// page cache until sync().
  std::uint64_t append_record(const std::string& file, std::string bytes);

  /// Flushes everything appended to `file` so far. Cost scales with the
  /// pending byte count. Returns the durable frontier afterwards; a crash
  /// during the fsync leaves the frontier wherever the crash lottery put it.
  Task<std::uint64_t> sync(const std::string& file);

  /// Drops all records with index < `upto` — durable or not: the caller
  /// asserts (via a checkpoint) that their effects are durable elsewhere.
  /// The durable frontier advances to at least min(upto, next).
  void truncate_log_prefix(const std::string& file, std::uint64_t upto);

  /// A view of a log's durable prefix. `records` points into the disk and
  /// stays valid until the log next changes (an append, a truncation or a
  /// crash); copy what must outlive that.
  struct LogContents {
    /// Durable records, oldest first.
    std::span<const std::string> records;
    std::uint64_t start = 0;  ///< absolute index of records[0]
    bool torn = false;        ///< a torn tail follows these records
  };

  /// Reads the durable contents of `file`, charging the read cost of the
  /// durable bytes present at the call. The view returned is taken when the
  /// read completes.
  Task<LogContents> read_log(const std::string& file);
  /// Same contents, free of charge (for invariants and crash-time capture).
  [[nodiscard]] LogContents peek_log(const std::string& file) const;

  /// Absolute index the next append to `file` will get.
  [[nodiscard]] std::uint64_t log_next_index(const std::string& file) const;
  /// Records with index < this are durable.
  [[nodiscard]] std::uint64_t log_durable_upto(const std::string& file) const;
  [[nodiscard]] std::uint64_t log_pending_bytes(const std::string& file) const;

  // --- atomic whole files -------------------------------------------------

  /// Writes `file` atomically: charges the write cost, then replaces the
  /// content in one step. Returns false (old content retained) if the node
  /// crashed while the write was in flight.
  Task<bool> write_file(const std::string& file, std::string bytes);

  Task<std::optional<std::string>> read_file(const std::string& file);
  [[nodiscard]] std::optional<std::string> peek_file(
      const std::string& file) const;

  // --- block devices (DESIGN.md decision 17) ------------------------------

  /// Writes `blocks.size()` consecutive blocks of `device` starting at block
  /// `first` (one extent write). Charges the write cost now; the content is
  /// page-cache-buffered (visible to reads, volatile to crashes) until
  /// sync_device(). Returns false if the node crashed while the write was in
  /// flight (nothing applied).
  Task<bool> write_extent(const std::string& device, std::uint64_t first,
                          std::vector<std::string> blocks);

  /// fsync barrier for `device`: every extent buffered so far becomes
  /// durable. Returns false if a crash interrupted (the lottery already
  /// decided the pending extents' fate).
  Task<bool> sync_device(const std::string& device);

  /// Reads `count` blocks starting at `first`, charging the read cost once
  /// for the whole extent. Never-written blocks come back as nullopt slots.
  Task<std::vector<std::optional<std::string>>> read_extent(
      const std::string& device, std::uint64_t first, std::uint64_t count);

  /// Page-cache view of one block, free of charge (crash-time capture and
  /// zero-time recovery reconstruction).
  [[nodiscard]] std::optional<std::string> peek_block(
      const std::string& device, std::uint64_t block) const;

  /// Bytes sitting in the page cache of `device` awaiting sync_device().
  [[nodiscard]] std::uint64_t device_pending_bytes(
      const std::string& device) const;

  // --- failure ------------------------------------------------------------

  /// Power loss at this instant. Pending (unsynced) log records survive only
  /// by lottery; in-flight sync()/write_file() calls observe the generation
  /// bump and complete without effect.
  void crash();

  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

  /// The cost model, exposed for layered engines (the block engine charges
  /// its accumulated zero-time recovery peeks through these at restart).
  [[nodiscard]] Duration read_cost_for(std::uint64_t bytes) const {
    return read_cost(bytes);
  }
  [[nodiscard]] Duration write_cost_for(std::uint64_t bytes) const {
    return write_cost(bytes);
  }

 private:
  struct LogFile {
    std::vector<std::string> records;  ///< records[i] has index start + i
    std::uint64_t start = 0;           ///< absolute index of records[0]
    std::uint64_t next = 0;            ///< index the next append gets
    std::uint64_t durable_upto = 0;    ///< indices < this are durable
    /// Absolute index of a crash-torn record (the tear sits where the next
    /// append will land); cleared once overwritten or truncated past.
    std::optional<std::uint64_t> torn_at;
  };

  [[nodiscard]] Duration write_cost(std::uint64_t bytes) const {
    return kWriteLatency + kWritePerByte * static_cast<std::int64_t>(bytes);
  }
  [[nodiscard]] Duration read_cost(std::uint64_t bytes) const {
    return kReadLatency + kReadPerByte * static_cast<std::int64_t>(bytes);
  }
  [[nodiscard]] static std::uint64_t pending_bytes(const LogFile& f);
  [[nodiscard]] static LogContents durable_contents(const LogFile& f);

  struct BlockDevice {
    /// Durable block contents (synced extents, post-lottery crash survivors).
    std::map<std::uint64_t, std::string> blocks;
    struct PendingExtent {
      std::uint64_t first = 0;
      std::vector<std::string> blocks;
    };
    /// Page-cache-buffered extent writes, in write order.
    std::vector<PendingExtent> pending;
  };

  Simulator& sim_;
  SimDiskOptions options_;
  Rng rng_;
  std::uint64_t generation_ = 0;
  // std::map: crash() draws per-log lottery numbers in key order, keeping
  // same-seed runs byte-identical. Device draws follow the log draws, so a
  // run with no block devices consumes exactly the pre-engine RNG stream.
  std::map<std::string, LogFile> logs_;
  std::map<std::string, std::string> files_;
  std::map<std::string, BlockDevice> devices_;
};

}  // namespace weakset
