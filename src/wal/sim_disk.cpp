#include "wal/sim_disk.hpp"

#include <cassert>
#include <utility>

namespace weakset {

std::uint64_t SimDisk::pending_bytes(const LogFile& f) {
  std::uint64_t total = 0;
  for (std::uint64_t idx = f.durable_upto; idx < f.next; ++idx) {
    total += f.records[static_cast<std::size_t>(idx - f.start)].size();
  }
  return total;
}

SimDisk::LogContents SimDisk::durable_contents(const LogFile& f) {
  LogContents out;
  out.start = f.start;
  out.torn = f.torn_at.has_value();
  out.records = std::span<const std::string>{f.records}.first(
      static_cast<std::size_t>(f.durable_upto - f.start));
  return out;
}

std::uint64_t SimDisk::append_record(const std::string& file,
                                     std::string bytes) {
  LogFile& f = logs_[file];
  const std::uint64_t idx = f.next;
  // Appending over the spot where a crash tore a record overwrites the tear.
  if (f.torn_at && *f.torn_at == idx) f.torn_at.reset();
  f.records.push_back(std::move(bytes));
  ++f.next;
  return idx;
}

Task<std::uint64_t> SimDisk::sync(const std::string& file) {
  const std::uint64_t gen = generation_;
  const LogFile& f = logs_[file];
  const std::uint64_t target = f.next;
  co_await sim_.delay(write_cost(pending_bytes(f)) + kFsyncLatency);
  if (generation_ != gen) co_return logs_[file].durable_upto;
  LogFile& g = logs_[file];
  if (target > g.durable_upto) g.durable_upto = target;
  co_return g.durable_upto;
}

void SimDisk::truncate_log_prefix(const std::string& file,
                                  std::uint64_t upto) {
  LogFile& f = logs_[file];
  if (upto > f.next) upto = f.next;
  if (upto > f.durable_upto) f.durable_upto = upto;
  if (upto > f.start) {
    f.records.erase(f.records.begin(),
                    f.records.begin() +
                        static_cast<std::ptrdiff_t>(upto - f.start));
    f.start = upto;
  }
  if (f.torn_at && *f.torn_at < upto) f.torn_at.reset();
}

Task<SimDisk::LogContents> SimDisk::read_log(const std::string& file) {
  std::uint64_t bytes = 0;
  for (const std::string& rec : peek_log(file).records) bytes += rec.size();
  co_await sim_.delay(read_cost(bytes));
  co_return peek_log(file);
}

SimDisk::LogContents SimDisk::peek_log(const std::string& file) const {
  const auto it = logs_.find(file);
  if (it == logs_.end()) return LogContents{};
  return durable_contents(it->second);
}

std::uint64_t SimDisk::log_next_index(const std::string& file) const {
  const auto it = logs_.find(file);
  return it == logs_.end() ? 0 : it->second.next;
}

std::uint64_t SimDisk::log_durable_upto(const std::string& file) const {
  const auto it = logs_.find(file);
  return it == logs_.end() ? 0 : it->second.durable_upto;
}

std::uint64_t SimDisk::log_pending_bytes(const std::string& file) const {
  const auto it = logs_.find(file);
  return it == logs_.end() ? 0 : pending_bytes(it->second);
}

Task<bool> SimDisk::write_file(const std::string& file, std::string bytes) {
  const std::uint64_t gen = generation_;
  co_await sim_.delay(write_cost(bytes.size()) + kFsyncLatency);
  if (generation_ != gen) co_return false;  // crash mid-write: old content
  files_[file] = std::move(bytes);
  co_return true;
}

Task<std::optional<std::string>> SimDisk::read_file(const std::string& file) {
  std::optional<std::string> content = peek_file(file);
  co_await sim_.delay(read_cost(content ? content->size() : 0));
  co_return content;
}

std::optional<std::string> SimDisk::peek_file(const std::string& file) const {
  const auto it = files_.find(file);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

Task<bool> SimDisk::write_extent(const std::string& device,
                                 std::uint64_t first,
                                 std::vector<std::string> blocks) {
  const std::uint64_t gen = generation_;
  std::uint64_t bytes = 0;
  for (const std::string& b : blocks) bytes += b.size();
  co_await sim_.delay(write_cost(bytes));
  if (generation_ != gen) co_return false;  // crash mid-write: nothing landed
  devices_[device].pending.push_back(
      BlockDevice::PendingExtent{first, std::move(blocks)});
  co_return true;
}

Task<bool> SimDisk::sync_device(const std::string& device) {
  const std::uint64_t gen = generation_;
  co_await sim_.delay(kFsyncLatency);
  if (generation_ != gen) co_return false;  // the lottery already ran
  BlockDevice& d = devices_[device];
  for (BlockDevice::PendingExtent& p : d.pending) {
    for (std::size_t i = 0; i < p.blocks.size(); ++i) {
      d.blocks[p.first + i] = std::move(p.blocks[i]);
    }
  }
  d.pending.clear();
  co_return true;
}

Task<std::vector<std::optional<std::string>>> SimDisk::read_extent(
    const std::string& device, std::uint64_t first, std::uint64_t count) {
  std::vector<std::optional<std::string>> out;
  out.reserve(static_cast<std::size_t>(count));
  std::uint64_t bytes = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(peek_block(device, first + i));
    if (out.back()) bytes += out.back()->size();
  }
  co_await sim_.delay(read_cost(bytes));
  co_return out;
}

std::optional<std::string> SimDisk::peek_block(const std::string& device,
                                               std::uint64_t block) const {
  const auto it = devices_.find(device);
  if (it == devices_.end()) return std::nullopt;
  const BlockDevice& d = it->second;
  // The page cache shadows the platter: the newest pending write wins.
  for (auto p = d.pending.rbegin(); p != d.pending.rend(); ++p) {
    if (block >= p->first && block < p->first + p->blocks.size()) {
      return p->blocks[static_cast<std::size_t>(block - p->first)];
    }
  }
  const auto b = d.blocks.find(block);
  if (b == d.blocks.end()) return std::nullopt;
  return b->second;
}

std::uint64_t SimDisk::device_pending_bytes(const std::string& device) const {
  const auto it = devices_.find(device);
  if (it == devices_.end()) return 0;
  std::uint64_t total = 0;
  for (const BlockDevice::PendingExtent& p : it->second.pending) {
    for (const std::string& b : p.blocks) total += b.size();
  }
  return total;
}

void SimDisk::crash() {
  ++generation_;
  for (auto& [name, f] : logs_) {
    (void)name;
    const std::uint64_t lost = f.next - f.durable_upto;
    // The lottery: how many pending records reached the platter anyway.
    const std::uint64_t kept = rng_.uniform(lost + 1);
    f.durable_upto += kept;
    if (kept < lost && rng_.bernoulli(options_.torn_tail_probability)) {
      f.torn_at = f.durable_upto;
    }
    f.records.resize(static_cast<std::size_t>(f.durable_upto - f.start));
    f.next = f.durable_upto;
  }
  for (auto& [name, d] : devices_) {
    (void)name;
    const std::uint64_t lost = d.pending.size();
    // Same lottery shape as the logs: a prefix of the pending extent writes
    // reached the platter in write order.
    const std::uint64_t kept = rng_.uniform(lost + 1);
    for (std::uint64_t i = 0; i < kept; ++i) {
      BlockDevice::PendingExtent& p = d.pending[static_cast<std::size_t>(i)];
      for (std::size_t j = 0; j < p.blocks.size(); ++j) {
        d.blocks[p.first + j] = std::move(p.blocks[j]);
      }
    }
    if (kept < lost && rng_.bernoulli(options_.torn_tail_probability)) {
      // The first lost extent tore mid-write: a prefix of its blocks landed
      // whole, and the next block landed half-written. The half block fails
      // the block layer's checksum on read — this is the multi-block analogue
      // of a torn log record.
      BlockDevice::PendingExtent& p =
          d.pending[static_cast<std::size_t>(kept)];
      if (!p.blocks.empty()) {
        const std::uint64_t whole = rng_.uniform(p.blocks.size());
        for (std::uint64_t j = 0; j < whole; ++j) {
          d.blocks[p.first + j] =
              std::move(p.blocks[static_cast<std::size_t>(j)]);
        }
        std::string& half = p.blocks[static_cast<std::size_t>(whole)];
        std::string torn = half.substr(0, half.size() / 2);
        if (torn.empty()) torn.push_back('\x5a');
        torn[0] = static_cast<char>(torn[0] ^ 0x5a);
        d.blocks[p.first + whole] = std::move(torn);
      }
    }
    d.pending.clear();
  }
}

}  // namespace weakset
