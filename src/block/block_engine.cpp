#include "block/block_engine.hpp"

#include <cassert>
#include <string_view>

#include "util/hash.hpp"
#include "wal/wal.hpp"

namespace weakset::block {
namespace {

/// This module's telemetry names, interned once per process.
struct BlockMetrics {
  obs::CounterId cache_hits{"store.block.cache_hits"};
  obs::CounterId cache_misses{"store.block.cache_misses"};
  obs::CounterId checkpoint_blocks_written{
      "store.block.checkpoint_blocks_written"};
  obs::CounterId compaction_moves{"store.block.compaction_moves"};
  obs::CounterId dirty_writebacks{"store.block.dirty_writebacks"};
  obs::CounterId evictions{"store.block.evictions"};
  obs::CounterId recovery_read_bytes{"store.block.recovery_read_bytes"};
  obs::HistogramId free_list_len{"store.block.free_list_len"};
};
const BlockMetrics kMetrics{};

constexpr std::uint32_t kSuperMagic = 0x31534257;  // "WBS1"
constexpr std::uint64_t kBucketSeed = 0x77654b53u;  // "SKew"
/// Superblock bytes before its free-range count: the magic, the collection,
/// the proto counters and the root and allocator fields.
constexpr std::size_t kSuperFields = 92;
/// Live-extent relocations per collection per compaction round.
constexpr std::uint32_t kCompactionMaxMoves = 8;

using wal::put_u32;
using wal::put_u64;

struct Superblock {
  ProtoState proto;
  std::uint64_t generation = 0;
  std::uint64_t members = 0;
  std::uint32_t nbuckets = 0;
  Extent root;
  BlockManager::PublishImage image;
};

std::string encode_superblock(std::uint64_t collection, const Superblock& sb) {
  std::string out;
  out.reserve(kSuperFields + 4 + 16 * sb.image.free_ranges.size() + 8);
  put_u32(out, kSuperMagic);
  put_u64(out, collection);
  put_u64(out, sb.proto.incarnation);
  put_u64(out, sb.proto.version);
  put_u64(out, sb.proto.last_seq);
  put_u64(out, sb.proto.applied_seq);
  put_u64(out, sb.proto.wal_upto);
  put_u64(out, sb.generation);
  put_u64(out, sb.members);
  put_u32(out, sb.nbuckets);
  put_u64(out, sb.root.first);
  put_u32(out, sb.root.nblocks);
  put_u64(out, sb.image.next_block);
  put_u32(out, static_cast<std::uint32_t>(sb.image.free_ranges.size()));
  for (const auto& [first, nblocks] : sb.image.free_ranges) {
    put_u64(out, first);
    put_u64(out, nblocks);
  }
  wal::seal(out);
  return out;
}

std::optional<Superblock> decode_superblock(std::uint64_t collection,
                                            const std::string& bytes) {
  const auto body = wal::unseal(bytes);
  if (!body) return std::nullopt;
  wal::Reader in{*body};
  if (in.left() < kSuperFields || in.u32() != kSuperMagic ||
      in.u64() != collection) {
    return std::nullopt;
  }
  Superblock sb;
  sb.proto.incarnation = in.u64();
  sb.proto.version = in.u64();
  sb.proto.last_seq = in.u64();
  sb.proto.applied_seq = in.u64();
  sb.proto.wal_upto = in.u64();
  sb.generation = in.u64();
  sb.members = in.u64();
  sb.nbuckets = in.u32();
  sb.root.first = in.u64();
  sb.root.nblocks = in.u32();
  sb.image.next_block = in.u64();
  const auto nranges = in.count32(16);
  if (!nranges || sb.nbuckets == 0) return std::nullopt;
  for (std::size_t i = 0; i < *nranges; ++i) {
    const std::uint64_t first = in.u64();
    sb.image.free_ranges.emplace_back(first, in.u64());
  }
  if (in.left() != 0) return std::nullopt;
  return sb;
}

std::string device_name(std::uint64_t collection) {
  return "blocks/" + std::to_string(collection);
}

std::string superblock_name(std::uint64_t collection) {
  return "blockroot/" + std::to_string(collection);
}

}  // namespace

std::string encode_leaf(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& members) {
  std::string out;
  out.reserve(4 + 16 * members.size());
  put_u32(out, static_cast<std::uint32_t>(members.size()));
  for (const auto& [object, home] : members) {
    put_u64(out, object);
    put_u64(out, home);
  }
  return out;
}

std::optional<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
decode_leaf(std::string_view bytes) {
  wal::Reader in{bytes};
  const auto count = in.count32(16);
  if (!count) return std::nullopt;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> members;
  members.reserve(*count);
  for (std::size_t i = 0; i < *count; ++i) {
    const std::uint64_t object = in.u64();
    members.emplace_back(object, in.u64());
  }
  if (in.left() != 0) return std::nullopt;
  return members;
}

std::string encode_root(const std::vector<Extent>& buckets) {
  std::string out;
  out.reserve(4 + 12 * buckets.size());
  put_u32(out, static_cast<std::uint32_t>(buckets.size()));
  for (const Extent& e : buckets) {
    put_u64(out, e.first);
    put_u32(out, e.nblocks);
  }
  return out;
}

std::optional<std::vector<Extent>> decode_root(std::string_view bytes) {
  wal::Reader in{bytes};
  const auto count = in.count32(12);
  if (!count || *count == 0) return std::nullopt;
  std::vector<Extent> buckets(*count);
  for (Extent& e : buckets) {
    e.first = in.u64();
    e.nblocks = in.u32();
  }
  if (in.left() != 0) return std::nullopt;
  return buckets;
}

BlockEngine::BlockEngine(Simulator& sim, SimDisk& disk,
                         const BlockStorageOptions& options,
                         obs::MetricsRegistry& metrics)
    : sim_(sim),
      disk_(disk),
      options_(options),
      metrics_(metrics),
      cache_(options.cache_bytes) {
  assert(options_.buckets > 0);
}

void BlockEngine::add_collection(std::uint64_t id) {
  if (colls_.count(id) > 0) return;
  colls_.emplace(id, std::make_unique<Coll>(disk_, device_name(id),
                                            options_.block_size,
                                            options_.buckets));
}

BlockEngine::Coll& BlockEngine::coll(std::uint64_t id) {
  const auto it = colls_.find(id);
  assert(it != colls_.end() && "collection not registered with block engine");
  return *it->second;
}

const BlockEngine::Coll& BlockEngine::coll(std::uint64_t id) const {
  const auto it = colls_.find(id);
  assert(it != colls_.end() && "collection not registered with block engine");
  return *it->second;
}

std::uint32_t BlockEngine::bucket_of(const Coll& c, std::uint64_t object,
                                     std::uint64_t home) const {
  const std::uint64_t h = hash_combine(hash_combine(kBucketSeed, object), home);
  return static_cast<std::uint32_t>(h % c.buckets.size());
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> BlockEngine::load_bucket(
    const Coll& c, std::uint32_t bucket) const {
  const Extent e = c.buckets[bucket];
  if (e.empty()) return {};
  const auto payload = c.mgr.peek(e);
  assert(payload && "referenced extent unreadable");
  if (!payload) return {};
  auto members = decode_leaf(*payload);
  assert(members && "referenced extent undecodable");
  return members ? std::move(*members)
                 : std::vector<std::pair<std::uint64_t, std::uint64_t>>{};
}

Page& BlockEngine::resident(std::uint64_t id, Coll& c, std::uint32_t bucket) {
  const PageKey key{id, bucket};
  if (Page* p = cache_.find(key)) {
    metrics_.add(kMetrics.cache_hits);
    return *p;
  }
  metrics_.add(kMetrics.cache_misses);
  // Peek-fault: free of simulated time. The RPC data path charges the read
  // by awaiting fault() before the synchronous op; crash-replay faults are
  // accumulated here and charged in one recovery read.
  if (recovery_accounting_) {
    recovery_bytes_ += static_cast<std::uint64_t>(c.buckets[bucket].nblocks) *
                       options_.block_size;
  }
  return cache_.insert(key, load_bucket(c, bucket), false);
}

void BlockEngine::mark_dirty(Coll& c, std::uint32_t bucket, Page& page) {
  page.dirty = true;
  ++page.version;
  c.dirty.insert(bucket);
}

bool BlockEngine::insert(std::uint64_t id, std::uint64_t object,
                         std::uint64_t home) {
  Coll& c = coll(id);
  const std::uint32_t b = bucket_of(c, object, home);
  Page& p = resident(id, c, b);
  for (const auto& m : p.members) {
    if (m.first == object && m.second == home) return false;
  }
  p.members.emplace_back(object, home);
  cache_.recharge(p);
  mark_dirty(c, b, p);
  ++c.members;
  return true;
}

bool BlockEngine::erase(std::uint64_t id, std::uint64_t object,
                        std::uint64_t home) {
  Coll& c = coll(id);
  const std::uint32_t b = bucket_of(c, object, home);
  Page& p = resident(id, c, b);
  for (std::size_t i = 0; i < p.members.size(); ++i) {
    if (p.members[i].first == object && p.members[i].second == home) {
      p.members[i] = p.members.back();  // swap-with-last, as MemberList does
      p.members.pop_back();
      cache_.recharge(p);
      mark_dirty(c, b, p);
      --c.members;
      return true;
    }
  }
  return false;
}

bool BlockEngine::contains(std::uint64_t id, std::uint64_t object,
                           std::uint64_t home) {
  Coll& c = coll(id);
  const std::uint32_t b = bucket_of(c, object, home);
  Page& p = resident(id, c, b);
  for (const auto& m : p.members) {
    if (m.first == object && m.second == home) return true;
  }
  return false;
}

std::uint64_t BlockEngine::size(std::uint64_t id) const {
  return coll(id).members;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> BlockEngine::materialize(
    std::uint64_t id) const {
  const Coll& c = coll(id);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(c.members);
  for (std::uint32_t b = 0; b < c.buckets.size(); ++b) {
    // A resident page is newer than (or equal to) its extent; prefer it.
    if (const Page* p =
            const_cast<BlockCache&>(cache_).peek(PageKey{id, b})) {
      out.insert(out.end(), p->members.begin(), p->members.end());
    } else {
      const auto members = load_bucket(c, b);
      out.insert(out.end(), members.begin(), members.end());
    }
  }
  return out;
}

void BlockEngine::assign(
    std::uint64_t id,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& members) {
  Coll& c = coll(id);
  cache_.drop_collection(id);
  for (Extent& e : c.buckets) {
    if (!e.empty()) c.mgr.retire_extent(e);
    e = Extent{};
  }
  c.dirty.clear();
  c.members = members.size();
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> parts(
      c.buckets.size());
  for (const auto& m : members) {
    parts[bucket_of(c, m.first, m.second)].push_back(m);
  }
  for (std::uint32_t b = 0; b < c.buckets.size(); ++b) {
    if (parts[b].empty()) continue;
    cache_.insert(PageKey{id, b}, std::move(parts[b]), true);
    c.dirty.insert(b);
  }
}

Task<void> BlockEngine::fault(std::uint64_t id, std::uint64_t object,
                              std::uint64_t home) {
  const std::uint64_t gen = wipe_generation_;
  Coll& c = coll(id);
  const std::uint32_t b = bucket_of(c, object, home);
  const PageKey key{id, b};
  if (cache_.find(key) != nullptr) {
    metrics_.add(kMetrics.cache_hits);
    co_return;
  }
  metrics_.add(kMetrics.cache_misses);
  const Extent e = c.buckets[b];
  std::vector<std::pair<std::uint64_t, std::uint64_t>> members;
  if (!e.empty()) {
    const auto payload = co_await c.mgr.read(e);
    if (wipe_generation_ != gen) co_return;
    if (payload) {
      if (auto decoded = decode_leaf(*payload)) members = std::move(*decoded);
    }
    // Another fault may have brought the bucket in while we were reading.
    if (cache_.peek(key) != nullptr) co_return;
    // The bucket may have been rewritten (checkpoint CoW) during the read;
    // the resident copy must reflect the *current* extent.
    if (c.buckets[b] != e) {
      auto fresh = load_bucket(c, b);
      members = std::move(fresh);
    }
  }
  Page& p = cache_.insert(key, std::move(members), false);
  ++p.pins;  // enforcement below must not evict the page it faulted for
  co_await enforce_budget();
  if (wipe_generation_ != gen) co_return;
  if (Page* pinned = cache_.peek(key); pinned != nullptr && pinned->pins > 0) {
    --pinned->pins;
  }
}

Task<void> BlockEngine::fault_many(
    std::uint64_t id,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> refs) {
  const std::uint64_t gen = wipe_generation_;
  for (const auto& [object, home] : refs) {
    co_await fault(id, object, home);
    if (wipe_generation_ != gen) co_return;
  }
}

Task<void> BlockEngine::enforce_budget() {
  const std::uint64_t gen = wipe_generation_;
  while (cache_.over_budget()) {
    Page* victim = cache_.victim();
    if (victim == nullptr) break;  // everything unpinnable is pinned
    if (!victim->dirty) {
      metrics_.add(kMetrics.evictions);
      cache_.erase(victim->key);
      continue;
    }
    // Dirty write-back: supersede the bucket's extent with the page content,
    // then drop the page. The old extent retires — an in-flight checkpoint
    // root may still reference it.
    const PageKey key = victim->key;
    Coll& vc = coll(key.collection);
    const Extent old = vc.buckets[key.bucket];
    const std::uint64_t version = victim->version;
    const std::string payload = encode_leaf(victim->members);
    const Extent fresh =
        vc.mgr.alloc_extent(vc.mgr.blocks_needed(payload.size()));
    ++victim->pins;  // a concurrent enforce must not pick the same victim
    const bool ok = co_await vc.mgr.write(fresh, payload);
    if (wipe_generation_ != gen) co_return;
    Page* page = cache_.peek(key);
    if (page != nullptr && page->pins > 0) --page->pins;
    if (page == nullptr || !ok || page->version != version ||
        vc.buckets[key.bucket] != old) {
      // Raced a drop, a mutation, or a checkpoint CoW of this bucket: the
      // freshly written extent is stale and unreferenced — recycle it now.
      vc.mgr.free_extent(fresh);
      if (!ok) co_return;
      continue;
    }
    if (!old.empty()) vc.mgr.retire_extent(old);
    vc.buckets[key.bucket] = fresh;
    page->dirty = false;
    vc.dirty.erase(key.bucket);
    metrics_.add(kMetrics.dirty_writebacks);
    metrics_.add(kMetrics.evictions);
    if (page->pins == 0) cache_.erase(key);
  }
}

void BlockEngine::trim_clean() {
  while (cache_.over_budget()) {
    Page* victim = cache_.victim();
    if (victim == nullptr || victim->dirty) break;
    metrics_.add(kMetrics.evictions);
    cache_.erase(victim->key);
  }
}

Task<bool> BlockEngine::checkpoint(std::uint64_t id, const ProtoState& proto) {
  const std::uint64_t gen = wipe_generation_;
  Coll& c = coll(id);

  // ---- snapshot: one synchronous instant ---------------------------------
  std::vector<std::pair<Extent, std::string>> writes;
  const std::set<std::uint32_t> dirty = std::move(c.dirty);
  c.dirty.clear();
  for (const std::uint32_t b : dirty) {
    Page* p = cache_.peek(PageKey{id, b});
    assert(p != nullptr && "dirty bucket not resident");
    if (p == nullptr) continue;
    const Extent old = c.buckets[b];
    Extent fresh{};
    if (!p->members.empty()) {
      const std::string payload = encode_leaf(p->members);
      fresh = c.mgr.alloc_extent(c.mgr.blocks_needed(payload.size()));
      writes.emplace_back(fresh, payload);
    }
    if (!old.empty()) c.mgr.retire_extent(old);
    c.buckets[b] = fresh;
    p->dirty = false;
  }
  {
    const std::string root_payload = encode_root(c.buckets);
    if (!c.root.empty()) c.mgr.retire_extent(c.root);
    c.root = c.mgr.alloc_extent(c.mgr.blocks_needed(root_payload.size()));
    writes.emplace_back(c.root, root_payload);
  }
  Superblock sb;
  sb.proto = proto;
  sb.generation = c.generation + 1;
  sb.members = c.members;
  sb.nbuckets = static_cast<std::uint32_t>(c.buckets.size());
  sb.root = c.root;
  // Extents retired up to this instant are unreferenced by the root just
  // serialized; open the publish cycle so they (and nothing retired later)
  // land in this superblock's free list.
  c.mgr.begin_publish();

  // ---- timed phase: leaf + root writes, barrier, atomic publish ----------
  std::uint64_t blocks_written = 0;
  for (const auto& [extent, payload] : writes) {
    const bool ok = co_await c.mgr.write(extent, payload);
    if (wipe_generation_ != gen || !ok) co_return false;
    blocks_written += extent.nblocks;
  }
  if (const bool synced = co_await c.mgr.sync();
      wipe_generation_ != gen || !synced) {
    co_return false;
  }
  sb.image = c.mgr.prepare_publish();
  const bool published = co_await disk_.write_file(superblock_name(id),
                                                   encode_superblock(id, sb));
  if (wipe_generation_ != gen || !published) co_return false;

  c.mgr.commit_publish();
  ++c.generation;
  metrics_.add(kMetrics.checkpoint_blocks_written, blocks_written);
  metrics_.record_value(kMetrics.free_list_len,
                        static_cast<std::int64_t>(c.mgr.free_blocks()));
  trim_clean();
  co_return true;
}

Task<std::uint32_t> BlockEngine::compact_round(std::uint64_t id) {
  const std::uint64_t gen = wipe_generation_;
  Coll& c = coll(id);
  std::uint32_t moves = 0;
  while (moves < kCompactionMaxMoves) {
    if (c.mgr.file_blocks() < options_.compaction_min_blocks ||
        c.mgr.fragmentation() < options_.fragmentation_threshold) {
      break;
    }
    // Relocate the highest-placed clean leaf downward; dirty leaves move on
    // their own at the next checkpoint, the root at every checkpoint.
    std::int64_t best = -1;
    for (std::uint32_t b = 0; b < c.buckets.size(); ++b) {
      const Extent e = c.buckets[b];
      if (e.empty() || c.dirty.count(b) > 0) continue;
      if (best < 0 ||
          e.first > c.buckets[static_cast<std::size_t>(best)].first) {
        best = b;
      }
    }
    if (best < 0) break;
    const auto bucket = static_cast<std::uint32_t>(best);
    const Extent old = c.buckets[bucket];
    const auto fresh = c.mgr.alloc_extent_below(old.nblocks, old.first);
    if (!fresh) break;
    std::string payload;
    if (const Page* p = cache_.peek(PageKey{id, bucket}); p != nullptr) {
      payload = encode_leaf(p->members);  // clean page == extent content
    } else {
      const auto read = co_await c.mgr.read(old);
      if (wipe_generation_ != gen) co_return moves;
      if (!read || c.buckets[bucket] != old) {
        c.mgr.free_extent(*fresh);
        break;
      }
      payload = *read;
    }
    const bool ok = co_await c.mgr.write(*fresh, payload);
    if (wipe_generation_ != gen) co_return moves;
    if (!ok || c.buckets[bucket] != old) {
      // Crash-adjacent or raced a concurrent rewrite: abandon the move.
      c.mgr.free_extent(*fresh);
      break;
    }
    c.mgr.retire_extent(old);
    c.buckets[bucket] = *fresh;
    ++moves;
    metrics_.add(kMetrics.compaction_moves);
  }
  co_return moves;
}

void BlockEngine::wipe() {
  ++wipe_generation_;
  cache_.clear();
  recovery_bytes_ = 0;
  recovery_accounting_ = true;
  for (auto& [id, c] : colls_) {
    (void)id;
    c->mgr.restore(0, {});
    c->buckets.assign(c->buckets.size(), Extent{});
    c->root = Extent{};
    c->dirty.clear();
    c->members = 0;
    c->generation = 0;
  }
}

std::optional<ProtoState> BlockEngine::reconstruct(std::uint64_t id) {
  Coll& c = coll(id);
  const auto bytes = disk_.peek_file(superblock_name(id));
  if (!bytes) return std::nullopt;  // no checkpoint ever published
  const auto sb = decode_superblock(id, *bytes);
  assert(sb && "superblock undecodable");
  if (!sb) return std::nullopt;
  recovery_bytes_ += bytes->size();

  c.mgr.restore(sb->image.next_block, sb->image.free_ranges);
  c.root = sb->root;
  c.generation = sb->generation;
  c.members = sb->members;
  const auto root_payload = c.mgr.peek(c.root);
  assert(root_payload && "published root unreadable");
  if (!root_payload) {
    c.mgr.restore(0, {});
    c.root = Extent{};
    c.members = 0;
    c.generation = 0;
    return std::nullopt;
  }
  recovery_bytes_ +=
      static_cast<std::uint64_t>(c.root.nblocks) * options_.block_size;
  auto buckets = decode_root(*root_payload);
  assert(buckets && "published root undecodable");
  if (!buckets) {
    c.mgr.restore(0, {});
    c.root = Extent{};
    c.members = 0;
    c.generation = 0;
    return std::nullopt;
  }
  c.buckets = std::move(*buckets);

  // Leak sweep: blocks the crash left allocated but unreferenced — scratch
  // extents of an unpublished checkpoint, abandoned write-backs — return to
  // the free list.
  std::set<std::uint64_t> referenced;
  for (std::uint64_t b = c.root.first; b < c.root.first + c.root.nblocks;
       ++b) {
    referenced.insert(b);
  }
  for (const Extent& e : c.buckets) {
    for (std::uint64_t b = e.first; b < e.first + e.nblocks; ++b) {
      referenced.insert(b);
    }
  }
  std::vector<std::uint64_t> leaked;
  for (std::uint64_t b = 0; b < c.mgr.file_blocks(); ++b) {
    if (!c.mgr.block_free(b) && referenced.count(b) == 0) leaked.push_back(b);
  }
  for (const std::uint64_t b : leaked) c.mgr.free_extent(Extent{b, 1});

  return sb->proto;
}

Task<void> BlockEngine::charge_recovery_reads() {
  if (recovery_bytes_ > 0) {
    metrics_.add(kMetrics.recovery_read_bytes, recovery_bytes_);
    const Duration cost = disk_.read_cost_for(recovery_bytes_);
    recovery_bytes_ = 0;
    recovery_accounting_ = false;
    co_await sim_.delay(cost);
    co_return;
  }
  recovery_accounting_ = false;
}

std::uint64_t BlockEngine::file_blocks(std::uint64_t id) const {
  return coll(id).mgr.file_blocks();
}

std::uint64_t BlockEngine::free_blocks(std::uint64_t id) const {
  return coll(id).mgr.free_blocks();
}

}  // namespace weakset::block
