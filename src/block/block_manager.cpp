#include "block/block_manager.hpp"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <utility>

#include "wal/wal.hpp"

namespace weakset::block {

BlockManager::BlockManager(SimDisk& disk, std::string device,
                           std::uint32_t block_size)
    : disk_(disk), device_(std::move(device)), block_size_(block_size) {
  assert(block_size_ > kBlockHeader && "block too small for its header");
}

std::uint32_t BlockManager::blocks_needed(std::uint64_t payload_bytes) const {
  const std::uint64_t cap = capacity();
  // Every payload, the empty one included, occupies at least one block (the
  // header carries the length, so an empty leaf is still addressable).
  const std::uint64_t n = (payload_bytes + cap - 1) / cap;
  return n == 0 ? 1 : static_cast<std::uint32_t>(n);
}

std::optional<std::uint64_t> BlockManager::find_run(std::uint32_t nblocks,
                                                    std::uint64_t below) const {
  // Lowest-fit: walk the ordered free set for the first contiguous run of
  // nblocks whose end stays under `below`.
  std::uint64_t run_start = 0;
  std::uint32_t run_len = 0;
  for (const std::uint64_t b : free_) {
    if (run_len != 0 && b == run_start + run_len) {
      ++run_len;
    } else {
      run_start = b;
      run_len = 1;
    }
    if (run_len == nblocks) {
      if (run_start + nblocks > below) return std::nullopt;  // ordered: done
      return run_start;
    }
  }
  return std::nullopt;
}

Extent BlockManager::alloc_extent(std::uint32_t nblocks) {
  assert(nblocks > 0);
  if (const auto run = find_run(nblocks, ~std::uint64_t{0})) {
    for (std::uint64_t b = *run; b < *run + nblocks; ++b) free_.erase(b);
    return Extent{*run, nblocks};
  }
  const Extent e{next_, nblocks};
  next_ += nblocks;
  return e;
}

std::optional<Extent> BlockManager::alloc_extent_below(std::uint32_t nblocks,
                                                       std::uint64_t below) {
  assert(nblocks > 0);
  const auto run = find_run(nblocks, below);
  if (!run) return std::nullopt;
  for (std::uint64_t b = *run; b < *run + nblocks; ++b) free_.erase(b);
  return Extent{*run, nblocks};
}

void BlockManager::free_extent(Extent e) {
  for (std::uint64_t b = e.first; b < e.first + e.nblocks; ++b) {
    const bool inserted = free_.insert(b).second;
    assert(inserted && "double free");
    (void)inserted;
  }
  // Trim the free tail: the file shrinks as soon as its top is garbage.
  while (next_ > 0 && free_.count(next_ - 1) > 0) {
    free_.erase(next_ - 1);
    --next_;
  }
}

void BlockManager::retire_extent(Extent e) {
  for (std::uint64_t b = e.first; b < e.first + e.nblocks; ++b) {
    const bool inserted = retired_.insert(b).second;
    assert(inserted && "double retire");
    (void)inserted;
  }
}

std::vector<std::string> BlockManager::seal_blocks(
    const std::string& payload) const {
  const std::uint32_t nblocks = blocks_needed(payload.size());
  std::vector<std::string> blocks;
  blocks.reserve(nblocks);
  const std::uint64_t cap = capacity();
  for (std::uint32_t i = 0; i < nblocks; ++i) {
    const std::size_t at = static_cast<std::size_t>(i) * cap;
    const std::size_t len =
        std::min<std::size_t>(cap, payload.size() - std::min<std::size_t>(
                                                        at, payload.size()));
    const std::string_view chunk{payload.data() + at, len};
    std::string block;
    block.reserve(kBlockHeader + len);
    wal::put_u32(block, static_cast<std::uint32_t>(len));
    wal::put_u64(block, wal::checksum(chunk));
    block.append(chunk);
    blocks.push_back(std::move(block));
  }
  return blocks;
}

std::optional<std::string> BlockManager::unseal_blocks(
    const std::vector<std::optional<std::string>>& blocks) {
  std::string payload;
  for (const auto& block : blocks) {
    if (!block || block->size() < kBlockHeader) return std::nullopt;
    const std::uint32_t len = wal::get_u32(*block, 0);
    const std::uint64_t sum = wal::get_u64(*block, 4);
    if (block->size() != kBlockHeader + len) return std::nullopt;
    const std::string_view chunk{block->data() + kBlockHeader, len};
    if (wal::checksum(chunk) != sum) return std::nullopt;  // torn block
    payload.append(chunk);
  }
  return payload;
}

Task<bool> BlockManager::write(Extent e, const std::string& payload) {
  std::vector<std::string> blocks = seal_blocks(payload);
  assert(blocks.size() == e.nblocks && "extent sized for a different payload");
  co_return co_await disk_.write_extent(device_, e.first, std::move(blocks));
}

Task<std::optional<std::string>> BlockManager::read(Extent e) {
  const auto blocks = co_await disk_.read_extent(device_, e.first, e.nblocks);
  co_return unseal_blocks(blocks);
}

std::optional<std::string> BlockManager::peek(Extent e) const {
  std::vector<std::optional<std::string>> blocks;
  blocks.reserve(e.nblocks);
  for (std::uint32_t i = 0; i < e.nblocks; ++i) {
    blocks.push_back(disk_.peek_block(device_, e.first + i));
  }
  return unseal_blocks(blocks);
}

Task<bool> BlockManager::sync() {
  co_return co_await disk_.sync_device(device_);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> BlockManager::ranges_of(
    const std::set<std::uint64_t>& blocks) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (const std::uint64_t b : blocks) {
    if (!ranges.empty() &&
        ranges.back().first + ranges.back().second == b) {
      ++ranges.back().second;
    } else {
      ranges.emplace_back(b, 1);
    }
  }
  return ranges;
}

void BlockManager::begin_publish() {
  assert(publishing_.empty() && "overlapping publish cycles");
  publishing_.swap(retired_);
}

BlockManager::PublishImage BlockManager::prepare_publish() const {
  std::set<std::uint64_t> merged = free_;
  merged.insert(publishing_.begin(), publishing_.end());
  std::uint64_t next = next_;
  while (next > 0 && merged.count(next - 1) > 0) {
    merged.erase(next - 1);
    --next;
  }
  return PublishImage{next, ranges_of(merged)};
}

void BlockManager::commit_publish() {
  free_.insert(publishing_.begin(), publishing_.end());
  publishing_.clear();
  while (next_ > 0 && free_.count(next_ - 1) > 0) {
    free_.erase(next_ - 1);
    --next_;
  }
}

void BlockManager::restore(
    std::uint64_t next_block,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& free_ranges) {
  next_ = next_block;
  free_.clear();
  retired_.clear();
  publishing_.clear();
  for (const auto& [first, nblocks] : free_ranges) {
    for (std::uint64_t b = first; b < first + nblocks; ++b) free_.insert(b);
  }
}

}  // namespace weakset::block
