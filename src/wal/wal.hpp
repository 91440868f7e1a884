#pragma once

// Write-ahead log records, checkpoint images, and the per-server group-commit
// writer (DESIGN.md decision 11).
//
// The codec layer is deliberately store-agnostic: records carry raw 64-bit
// ids, so weakset_wal depends only on sim/obs/util and the store layer does
// the CollectionOp <-> WalRecord conversion. Every encoded blob ends with a
// word-at-a-time checksum (see checksum()); decode returns nullopt on any
// mismatch, which is how a torn tail manifests to recovery. The block
// engine's pages and superblocks (src/block) use the same integer codec,
// seal and Reader.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "wal/sim_disk.hpp"

namespace weakset::wal {

/// One applied mutation — or a migration marker — as it goes to disk.
struct WalRecord {
  /// Record kinds. Membership ops (add/remove) carry an object; migration
  /// markers (src/placement live fragment migration) reuse the `object`
  /// field for the peer node id. A `begin` without a matching `done` means
  /// the migration never committed (the directory was not bumped), so
  /// recovery restores the fragment as the live single home; a `done` means
  /// authority transferred — recovery drops the fragment even if an older
  /// checkpoint still contains it.
  static constexpr std::uint8_t kAdd = 0;
  static constexpr std::uint8_t kRemove = 1;
  static constexpr std::uint8_t kMigrationBegin = 2;
  static constexpr std::uint8_t kMigrationDone = 3;
  /// OR-Set dot ops (ReplicationMode::kOrSet, DESIGN.md decision 16): past
  /// the fragment's last checkpoint image (OrSetImage), its durable history
  /// is the stream of effective dot-level operations, local and remote
  /// alike. `seq` carries the dot counter and `origin` the dot's minting
  /// replica — together the globally unique tag.
  static constexpr std::uint8_t kOrSetInsert = 4;
  static constexpr std::uint8_t kOrSetKill = 5;

  std::uint64_t collection = 0;
  std::uint8_t kind = 0;  ///< one of the record kinds above
  std::uint64_t object = 0;
  std::uint64_t home = 0;
  std::uint64_t seq = 0;
  std::uint64_t incarnation = 0;
  /// Dot origin for kOrSetInsert/kOrSetKill; 0 for every other kind.
  std::uint64_t origin = 0;
};

// -- Integer codec shared by every on-disk structure ------------------------

/// On-disk integers are little-endian whatever the host.
[[nodiscard]] inline std::uint32_t little_endian(std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap32(v);
  }
  return v;
}
[[nodiscard]] inline std::uint64_t little_endian(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(v);
  }
  return v;
}

/// One copy per word. Encoders reserve `out` to its final size first, so no
/// append reallocates.
inline void put_u32(std::string& out, std::uint32_t v) {
  v = little_endian(v);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
inline void put_u64(std::string& out, std::uint64_t v) {
  v = little_endian(v);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// The word at `at`; the caller has checked that the bytes hold it.
[[nodiscard]] inline std::uint32_t get_u32(std::string_view bytes,
                                           std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return little_endian(v);
}
[[nodiscard]] inline std::uint64_t get_u64(std::string_view bytes,
                                           std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return little_endian(v);
}

/// Checksum sealing every WAL record, checkpoint, block and superblock: folds
/// eight bytes per step, then the remaining bytes one at a time. Every step
/// is a bijection of the running sum, and of its input word for a fixed sum,
/// so changing any single word or byte always changes the result.
[[nodiscard]] std::uint64_t checksum(std::string_view bytes);

/// Appends the checksum of everything in `out` so far.
inline void seal(std::string& out) {
  put_u64(out, checksum(out));
}

/// Checks and strips the trailing checksum; nullopt on mismatch.
[[nodiscard]] std::optional<std::string_view> unseal(std::string_view bytes);

/// Bounds-checked cursor over a checksum-verified payload.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t left() const { return bytes_.size() - at_; }

  /// The next word; the caller has checked that left() covers it.
  std::uint32_t u32() {
    const std::uint32_t v = get_u32(bytes_, at_);
    at_ += 4;
    return v;
  }
  std::uint64_t u64() {
    const std::uint64_t v = get_u64(bytes_, at_);
    at_ += 8;
    return v;
  }

  /// A u64 (count) or u32 (count32) count of items `item_bytes` long each;
  /// nullopt if the count is missing or the bytes left cannot hold that many
  /// items. Checked by division, so a count read from disk can neither
  /// overflow a multiply nor size an allocation beyond the payload.
  std::optional<std::size_t> count(std::size_t item_bytes) {
    if (left() < 8) return std::nullopt;
    return fitting(u64(), item_bytes);
  }
  std::optional<std::size_t> count32(std::size_t item_bytes) {
    if (left() < 4) return std::nullopt;
    return fitting(u32(), item_bytes);
  }

  /// A counted run of (u64, u64) pairs; false on a bad count.
  bool pairs(std::vector<std::pair<std::uint64_t, std::uint64_t>>& out) {
    const auto n = count(16);
    if (!n) return false;
    out.reserve(*n);
    for (std::size_t i = 0; i < *n; ++i) {
      const std::uint64_t first = u64();
      out.emplace_back(first, u64());
    }
    return true;
  }

 private:
  [[nodiscard]] std::optional<std::size_t> fitting(
      std::uint64_t n, std::size_t item_bytes) const {
    if (n > left() / item_bytes) return std::nullopt;
    return static_cast<std::size_t>(n);
  }

  std::string_view bytes_;
  std::size_t at_ = 0;
};

// -- WAL records and checkpoints ---------------------------------------------

[[nodiscard]] std::string encode(const WalRecord& rec);
/// nullopt on short, trailing-garbage, or checksum-failing input.
[[nodiscard]] std::optional<WalRecord> decode_record(std::string_view bytes);

/// Snapshot of one hosted collection, as it goes into a checkpoint.
struct CollectionImage {
  std::uint64_t collection = 0;
  std::uint64_t incarnation = 0;
  std::uint64_t version = 0;
  std::uint64_t last_seq = 0;
  std::uint64_t applied_seq = 0;
  /// (object id, home node id) pairs.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> members;
};

/// Snapshot of one hosted OR-Set fragment (DESIGN.md decision 16): its dot
/// context and its live dots, the same state a full-state orset.pull reply
/// ships. Joining an empty replica with the pair rebuilds the fragment.
struct OrSetImage {
  /// One live dot of one element.
  struct LiveDot {
    std::uint64_t object = 0;
    std::uint64_t home = 0;
    std::uint64_t origin = 0;
    std::uint64_t counter = 0;
    friend bool operator==(const LiveDot&, const LiveDot&) = default;
  };

  std::uint64_t collection = 0;
  /// Dot-context version vector, as (origin, counter) pairs.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> context_vector;
  /// Dot-context cloud, as (origin, counter) pairs.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> context_cloud;
  std::vector<LiveDot> live;
};

/// A whole-server checkpoint: every hosted collection at one instant. The
/// OR-Set images are a trailing section, written only when there is one:
/// a server without OR-Set fragments writes no OR-Set count at all.
struct CheckpointImage {
  std::vector<CollectionImage> collections;
  std::vector<OrSetImage> orsets;
};

[[nodiscard]] std::string encode(const CheckpointImage& image);
/// nullopt on short, trailing-garbage or checksum-failing input, and on any
/// count larger than the bytes left to hold it.
[[nodiscard]] std::optional<CheckpointImage> decode_checkpoint(
    std::string_view bytes);

/// Group-commit WAL writer for one server. append() is synchronous (page
/// cache); durability arrives in batches: the first append after a clean
/// flush arms a timer at `fsync_interval`, and the flush it fires keeps
/// fsyncing until the durable frontier catches the append frontier. Strict
/// writers co_await wait_durable(index) before acking.
class WalWriter {
 public:
  WalWriter(Simulator& sim, SimDisk& disk, std::string file,
            Duration fsync_interval, obs::MetricsRegistry* metrics);
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends (no simulated time) and returns the record's absolute index.
  std::uint64_t append(const WalRecord& rec);

  /// Resolves true once the record at `index` is durable; false if the node
  /// crashed first (the record may or may not have survived the lottery —
  /// the caller must treat the mutation's durability as unknown).
  Task<bool> wait_durable(std::uint64_t index);

  /// Power loss: forget all in-flight flush state and fail pending waiters.
  /// The owning server bumps its epoch first; stale flush coroutines see the
  /// generation change and touch nothing.
  void on_crash();

  /// Wakes wait_durable() waiters to re-check the frontier — called after a
  /// checkpoint truncation advances durability without an fsync.
  void notify_progress();

  [[nodiscard]] const std::string& file() const noexcept { return file_; }
  [[nodiscard]] std::uint64_t next_index() const {
    return disk_.log_next_index(file_);
  }

 private:
  void arm_flush();
  Task<void> flush(std::uint64_t gen);
  void wake_waiters();

  Simulator& sim_;
  SimDisk& disk_;
  std::string file_;
  Duration fsync_interval_;
  obs::MetricsRegistry* metrics_;

  std::uint64_t crash_generation_ = 0;
  bool flush_armed_ = false;
  bool flush_running_ = false;
  Simulator::TimerToken flush_timer_;
  /// Oldest not-yet-durable append, for the commit-latency histogram.
  std::optional<SimTime> oldest_pending_at_;
  /// Swapped-and-opened on every durability advance; waiters hold the old
  /// (now permanently open) gate and loop to re-check the frontier.
  std::shared_ptr<Gate> flush_done_;
};

}  // namespace weakset::wal
