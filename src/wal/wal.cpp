#include "wal/wal.hpp"

#include <bit>
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

void put_pairs(std::string& out,
               const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
                   pairs) {
  put_u64(out, pairs.size());
  for (const auto& [first, second] : pairs) {
    put_u64(out, first);
    put_u64(out, second);
  }
}

/// Header bytes of one collection image (five fields and the member
/// count) and of one OR-Set image (the id and three counts).
constexpr std::size_t kCollectionHeader = 48;
constexpr std::size_t kOrSetHeader = 32;

std::size_t encoded_size(const CheckpointImage& image) {
  std::size_t size = 16;  // collection count + checksum
  for (const CollectionImage& coll : image.collections) {
    size += kCollectionHeader + 16 * coll.members.size();
  }
  if (!image.orsets.empty()) size += 8;
  for (const OrSetImage& orset : image.orsets) {
    size += kOrSetHeader +
            16 * (orset.context_vector.size() + orset.context_cloud.size()) +
            32 * orset.live.size();
  }
  return size;
}

}  // namespace

std::optional<std::string_view> unseal(std::string_view bytes) {
  if (bytes.size() < 8) return std::nullopt;
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  if (get_u64(bytes, bytes.size() - 8) != checksum(payload)) {
    return std::nullopt;
  }
  return payload;
}

std::uint64_t checksum(std::string_view bytes) {
  // Both steps are x -> (x ^ input) * odd constant, the word step then
  // rotated so high bits feed back into low ones: bijections of the sum.
  constexpr std::uint64_t kWordMul = 0x9e3779b97f4a7c15ull;
  constexpr std::uint64_t kByteMul = 0x100000001b3ull;
  std::uint64_t sum = 0xcbf29ce484222325ull;
  std::size_t at = 0;
  for (; bytes.size() - at >= 8; at += 8) {
    sum = std::rotl((sum ^ get_u64(bytes, at)) * kWordMul, 31);
  }
  for (; at < bytes.size(); ++at) {
    sum = (sum ^ static_cast<unsigned char>(bytes[at])) * kByteMul;
  }
  return sum;
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
  out.reserve(encoded_size(image));
  put_u64(out, image.collections.size());
  for (const CollectionImage& coll : image.collections) {
    put_u64(out, coll.collection);
    put_u64(out, coll.incarnation);
    put_u64(out, coll.version);
    put_u64(out, coll.last_seq);
    put_u64(out, coll.applied_seq);
    put_pairs(out, coll.members);
  }
  if (!image.orsets.empty()) {
    put_u64(out, image.orsets.size());
    for (const OrSetImage& orset : image.orsets) {
      put_u64(out, orset.collection);
      put_pairs(out, orset.context_vector);
      put_pairs(out, orset.context_cloud);
      put_u64(out, orset.live.size());
      for (const OrSetImage::LiveDot& dot : orset.live) {
        put_u64(out, dot.object);
        put_u64(out, dot.home);
        put_u64(out, dot.origin);
        put_u64(out, dot.counter);
      }
    }
  }
  seal(out);
  return out;
}

std::optional<CheckpointImage> decode_checkpoint(std::string_view bytes) {
  const auto payload = unseal(bytes);
  if (!payload) return std::nullopt;
  Reader in{*payload};
  const auto n_colls = in.count(kCollectionHeader);
  if (!n_colls) return std::nullopt;
  CheckpointImage image;
  image.collections.reserve(*n_colls);
  for (std::size_t i = 0; i < *n_colls; ++i) {
    if (in.left() < kCollectionHeader) return std::nullopt;
    CollectionImage& coll = image.collections.emplace_back();
    coll.collection = in.u64();
    coll.incarnation = in.u64();
    coll.version = in.u64();
    coll.last_seq = in.u64();
    coll.applied_seq = in.u64();
    if (!in.pairs(coll.members)) return std::nullopt;
  }
  if (in.left() == 0) return image;  // no OR-Set section
  const auto n_orsets = in.count(kOrSetHeader);
  if (!n_orsets) return std::nullopt;
  image.orsets.reserve(*n_orsets);
  for (std::size_t i = 0; i < *n_orsets; ++i) {
    if (in.left() < kOrSetHeader) return std::nullopt;
    OrSetImage& orset = image.orsets.emplace_back();
    orset.collection = in.u64();
    if (!in.pairs(orset.context_vector) || !in.pairs(orset.context_cloud)) {
      return std::nullopt;
    }
    const auto n_live = in.count(32);
    if (!n_live) return std::nullopt;
    orset.live.reserve(*n_live);
    for (std::size_t d = 0; d < *n_live; ++d) {
      OrSetImage::LiveDot& dot = orset.live.emplace_back();
      dot.object = in.u64();
      dot.home = in.u64();
      dot.origin = in.u64();
      dot.counter = in.u64();
    }
  }
  if (in.left() != 0) return std::nullopt;
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
