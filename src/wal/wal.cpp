#include "wal/wal.hpp"

#include <cassert>

namespace weakset::wal {
namespace {

/// This module's telemetry names, interned once per process.
struct WalMetrics {
  obs::CounterId appends{"wal.appends"};
  obs::CounterId fsyncs{"wal.fsyncs"};
  obs::CounterId records_synced{"wal.records_synced"};
  obs::HistogramId append_bytes{"wal.append_bytes"};
  obs::HistogramId commit{"wal.commit"};
  obs::HistogramId fsync{"wal.fsync"};
};
const WalMetrics kMetrics{};

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_u64(std::string_view bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    const auto byte =
        static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]);
    v |= static_cast<std::uint64_t>(byte) << (8 * i);
  }
  return v;
}

void seal(std::string& out) { put_u64(out, fnv1a(out)); }

/// Checks and strips the trailing checksum; nullopt on mismatch.
std::optional<std::string_view> unseal(std::string_view bytes) {
  if (bytes.size() < 8) return std::nullopt;
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  if (get_u64(bytes, bytes.size() - 8) != fnv1a(payload)) return std::nullopt;
  return payload;
}

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string encode(const WalRecord& rec) {
  std::string out;
  out.reserve(57);
  put_u64(out, rec.collection);
  out.push_back(static_cast<char>(rec.kind));
  put_u64(out, rec.object);
  put_u64(out, rec.home);
  put_u64(out, rec.seq);
  put_u64(out, rec.incarnation);
  put_u64(out, rec.origin);
  seal(out);
  return out;
}

std::optional<WalRecord> decode_record(std::string_view bytes) {
  const auto payload = unseal(bytes);
  if (!payload || payload->size() != 49) return std::nullopt;
  WalRecord rec;
  rec.collection = get_u64(*payload, 0);
  rec.kind = static_cast<std::uint8_t>((*payload)[8]);
  rec.object = get_u64(*payload, 9);
  rec.home = get_u64(*payload, 17);
  rec.seq = get_u64(*payload, 25);
  rec.incarnation = get_u64(*payload, 33);
  rec.origin = get_u64(*payload, 41);
  return rec;
}

std::string encode(const CheckpointImage& image) {
  std::string out;
  put_u64(out, image.collections.size());
  for (const CollectionImage& coll : image.collections) {
    put_u64(out, coll.collection);
    put_u64(out, coll.incarnation);
    put_u64(out, coll.version);
    put_u64(out, coll.last_seq);
    put_u64(out, coll.applied_seq);
    put_u64(out, coll.members.size());
    for (const auto& [object, home] : coll.members) {
      put_u64(out, object);
      put_u64(out, home);
    }
  }
  seal(out);
  return out;
}

std::optional<CheckpointImage> decode_checkpoint(std::string_view bytes) {
  const auto payload = unseal(bytes);
  if (!payload || payload->size() < 8) return std::nullopt;
  std::size_t at = 0;
  const auto need = [&](std::size_t n) { return payload->size() - at >= n; };
  const std::uint64_t n_colls = get_u64(*payload, at);
  at += 8;
  CheckpointImage image;
  for (std::uint64_t i = 0; i < n_colls; ++i) {
    if (!need(48)) return std::nullopt;
    CollectionImage coll;
    coll.collection = get_u64(*payload, at);
    coll.incarnation = get_u64(*payload, at + 8);
    coll.version = get_u64(*payload, at + 16);
    coll.last_seq = get_u64(*payload, at + 24);
    coll.applied_seq = get_u64(*payload, at + 32);
    const std::uint64_t n_members = get_u64(*payload, at + 40);
    at += 48;
    if (!need(n_members * 16)) return std::nullopt;
    coll.members.reserve(static_cast<std::size_t>(n_members));
    for (std::uint64_t m = 0; m < n_members; ++m) {
      coll.members.emplace_back(get_u64(*payload, at),
                                get_u64(*payload, at + 8));
      at += 16;
    }
    image.collections.push_back(std::move(coll));
  }
  if (at != payload->size()) return std::nullopt;
  return image;
}

WalWriter::WalWriter(Simulator& sim, SimDisk& disk, std::string file,
                     Duration fsync_interval, obs::MetricsRegistry* metrics)
    : sim_(sim),
      disk_(disk),
      file_(std::move(file)),
      fsync_interval_(fsync_interval),
      metrics_(metrics),
      flush_done_(std::make_shared<Gate>(sim, false)) {}

std::uint64_t WalWriter::append(const WalRecord& rec) {
  std::string bytes = encode(rec);
  if (metrics_) {
    metrics_->add(kMetrics.appends);
    metrics_->record_value(kMetrics.append_bytes,
                           static_cast<std::int64_t>(bytes.size()));
  }
  if (!oldest_pending_at_) oldest_pending_at_ = sim_.now();
  const std::uint64_t idx = disk_.append_record(file_, std::move(bytes));
  arm_flush();
  return idx;
}

Task<bool> WalWriter::wait_durable(std::uint64_t index) {
  const std::uint64_t gen = crash_generation_;
  while (disk_.log_durable_upto(file_) <= index) {
    if (crash_generation_ != gen) co_return false;
    arm_flush();  // a truncation may have cleared the armed flush
    const std::shared_ptr<Gate> gate = flush_done_;
    co_await gate->wait();
    if (crash_generation_ != gen) co_return false;
  }
  co_return true;
}

void WalWriter::arm_flush() {
  if (flush_armed_ || flush_running_) return;
  if (disk_.log_durable_upto(file_) >= disk_.log_next_index(file_)) return;
  flush_armed_ = true;
  const std::uint64_t gen = crash_generation_;
  flush_timer_ = sim_.schedule_cancellable(fsync_interval_, [this, gen] {
    if (crash_generation_ != gen) return;
    flush_armed_ = false;
    if (flush_running_) return;
    flush_running_ = true;
    sim_.spawn(flush(gen));
  });
}

Task<void> WalWriter::flush(std::uint64_t gen) {
  while (disk_.log_durable_upto(file_) < disk_.log_next_index(file_)) {
    const SimTime start = sim_.now();
    const std::uint64_t before = disk_.log_durable_upto(file_);
    const std::uint64_t after = co_await disk_.sync(file_);
    if (crash_generation_ != gen) co_return;  // stale: touch nothing
    if (metrics_) {
      metrics_->add(kMetrics.fsyncs);
      metrics_->record(kMetrics.fsync, sim_.now() - start);
      metrics_->add(kMetrics.records_synced, after - before);
    }
  }
  if (metrics_ && oldest_pending_at_) {
    metrics_->record(kMetrics.commit, sim_.now() - *oldest_pending_at_);
  }
  oldest_pending_at_.reset();
  flush_running_ = false;
  wake_waiters();
}

void WalWriter::wake_waiters() {
  const auto old = std::exchange(flush_done_,
                                 std::make_shared<Gate>(sim_, false));
  old->open();
}

void WalWriter::notify_progress() {
  if (disk_.log_durable_upto(file_) >= disk_.log_next_index(file_)) {
    oldest_pending_at_.reset();
  }
  wake_waiters();
}

void WalWriter::on_crash() {
  ++crash_generation_;
  flush_timer_.cancel();
  flush_armed_ = false;
  flush_running_ = false;
  oldest_pending_at_.reset();
  wake_waiters();  // waiters resume, observe the generation bump, fail
}

}  // namespace weakset::wal
