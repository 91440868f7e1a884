// Tests for the block storage engine (DESIGN.md decision 17): the extent
// allocator and sealed-block codec (BlockManager), the LRU page cache
// (BlockCache), and the shadow-paged checkpoint engine (BlockEngine) —
// including the crash cases the design leans on: a crash mid-checkpoint
// leaves the previous root recoverable, the free list reloads from the
// superblock, and every scenario is deterministic run-to-run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "block/block_cache.hpp"
#include "block/block_engine.hpp"
#include "block/block_manager.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/hash.hpp"
#include "wal/sim_disk.hpp"

namespace weakset::block {
namespace {

SimDiskOptions disk_options(std::uint64_t seed = 0x0d15c) {
  SimDiskOptions options;
  options.seed = seed;
  return options;
}

// --- BlockManager: extent allocation ---------------------------------------

TEST(BlockManager, LowestFitAllocationAndTailTrim) {
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  BlockManager mgr{disk, "blocks/t", 4096};

  const Extent a = mgr.alloc_extent(2);
  const Extent b = mgr.alloc_extent(3);
  const Extent c = mgr.alloc_extent(1);
  EXPECT_EQ(a.first, 0u);
  EXPECT_EQ(b.first, 2u);
  EXPECT_EQ(c.first, 5u);
  EXPECT_EQ(mgr.file_blocks(), 6u);

  // Freeing mid-file opens a hole; a fitting allocation takes the lowest
  // hole rather than growing the file.
  mgr.free_extent(a);
  EXPECT_EQ(mgr.free_blocks(), 2u);
  const Extent d = mgr.alloc_extent(2);
  EXPECT_EQ(d.first, 0u);
  EXPECT_EQ(mgr.file_blocks(), 6u);

  // No hole fits three contiguous blocks: grow at the high-water mark.
  const Extent e = mgr.alloc_extent(3);
  EXPECT_EQ(e.first, 6u);
  EXPECT_EQ(mgr.file_blocks(), 9u);

  // Freeing the tail trims the file back down.
  mgr.free_extent(e);
  EXPECT_EQ(mgr.file_blocks(), 6u);
  mgr.free_extent(c);
  EXPECT_EQ(mgr.file_blocks(), 5u);
}

TEST(BlockManager, AllocBelowRefusesUpwardMoves) {
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  BlockManager mgr{disk, "blocks/t", 4096};

  const Extent a = mgr.alloc_extent(2);
  const Extent b = mgr.alloc_extent(2);
  (void)b;
  const Extent top = mgr.alloc_extent(2);
  mgr.free_extent(a);

  // A hole below the pivot qualifies; growth or holes at/above it do not.
  const auto low = mgr.alloc_extent_below(2, top.first);
  ASSERT_TRUE(low.has_value());
  EXPECT_EQ(low->first, 0u);
  EXPECT_FALSE(mgr.alloc_extent_below(2, top.first).has_value());
}

TEST(BlockManager, RetirementJoinsFreeListOnlyAfterSnapshotPublish) {
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  BlockManager mgr{disk, "blocks/t", 4096};

  const Extent a = mgr.alloc_extent(1);
  const Extent b = mgr.alloc_extent(1);
  mgr.retire_extent(a);
  EXPECT_EQ(mgr.retired_blocks(), 1u);
  EXPECT_FALSE(mgr.block_free(a.first));

  // Snapshot instant: a (retired before) enters this cycle; b (retired
  // after — an eviction superseding a leaf the in-flight root references)
  // must wait for the next one.
  mgr.begin_publish();
  mgr.retire_extent(b);
  const auto image = mgr.prepare_publish();
  std::set<std::uint64_t> image_free;
  for (const auto& [first, n] : image.free_ranges) {
    for (std::uint64_t blk = first; blk < first + n; ++blk) {
      image_free.insert(blk);
    }
  }
  EXPECT_TRUE(image_free.count(a.first) > 0);
  EXPECT_TRUE(image_free.count(b.first) == 0);

  mgr.commit_publish();
  EXPECT_TRUE(mgr.block_free(a.first));
  EXPECT_FALSE(mgr.block_free(b.first));
  EXPECT_EQ(mgr.retired_blocks(), 1u);

  // The next cycle picks b up; with everything free the publish trims the
  // whole file away.
  mgr.begin_publish();
  mgr.commit_publish();
  EXPECT_EQ(mgr.retired_blocks(), 0u);
  EXPECT_EQ(mgr.file_blocks(), 0u);
  EXPECT_EQ(mgr.free_blocks(), 0u);
}

// --- BlockManager: sealed-block codec --------------------------------------

TEST(BlockManager, MultiBlockPayloadRoundTrips) {
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  BlockManager mgr{disk, "blocks/t", 128};

  std::string payload;
  for (int i = 0; i < 300; ++i) {
    payload.push_back(static_cast<char>('a' + i % 26));
  }
  const Extent e = mgr.alloc_extent(
      mgr.blocks_needed(static_cast<std::uint64_t>(payload.size())));
  ASSERT_GE(e.nblocks, 2u);
  ASSERT_TRUE(run_task(sim, mgr.write(e, payload)));
  ASSERT_TRUE(run_task(sim, mgr.sync()));

  const auto timed = run_task(sim, mgr.read(e));
  ASSERT_TRUE(timed.has_value());
  EXPECT_EQ(*timed, payload);
  const auto peeked = mgr.peek(e);
  ASSERT_TRUE(peeked.has_value());
  EXPECT_EQ(*peeked, payload);
}

TEST(BlockManager, TornCrashExtentNeverReadsBackCorrupt) {
  // The crash lottery keeps a prefix of pending extent writes and may tear
  // the next one (whole-block prefix plus one half-written block). Whatever
  // a seed decides, an unsynced extent must read back either complete or
  // nullopt — never a wrong payload. Sweep seeds so both outcomes occur.
  int torn_seen = 0;
  int survived_seen = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    Simulator sim;
    SimDiskOptions options = disk_options(seed);
    options.torn_tail_probability = 1.0;
    SimDisk disk{sim, options};
    BlockManager mgr{disk, "blocks/t", 128};

    const std::string durable(200, 'x');
    const Extent a = mgr.alloc_extent(
        mgr.blocks_needed(static_cast<std::uint64_t>(durable.size())));
    ASSERT_TRUE(run_task(sim, mgr.write(a, durable)));
    ASSERT_TRUE(run_task(sim, mgr.sync()));

    const std::string pending(300, 'y');
    const Extent b = mgr.alloc_extent(
        mgr.blocks_needed(static_cast<std::uint64_t>(pending.size())));
    ASSERT_TRUE(run_task(sim, mgr.write(b, pending)));
    disk.crash();

    const auto kept = mgr.peek(a);
    ASSERT_TRUE(kept.has_value()) << "synced extent lost (seed " << seed
                                  << ")";
    EXPECT_EQ(*kept, durable);
    const auto lottery = mgr.peek(b);
    if (lottery.has_value()) {
      EXPECT_EQ(*lottery, pending) << "seed " << seed;
      ++survived_seen;
    } else {
      ++torn_seen;
    }
  }
  EXPECT_GT(torn_seen, 0);
  EXPECT_GT(survived_seen, 0);
}

// --- Page codec -------------------------------------------------------------

/// The `width` low bytes of `v`, little-endian, as the codec lays out every
/// integer.
std::string le(std::uint64_t v, int width) {
  std::string out;
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  return out;
}

TEST(BlockPageCodec, SealedPagesWithOversizedCountsReadAsUnreadable) {
  // Each page goes through a sealed extent and back, so its checksum holds
  // and only the page codec can reject it. A u32 count of 2^32-1 members
  // would reserve 64 GiB; the decoder must refuse it from the bytes left.
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  BlockManager mgr{disk, "blocks/t", 128};
  const auto through_disk = [&](const std::string& payload) {
    const Extent e = mgr.alloc_extent(
        mgr.blocks_needed(static_cast<std::uint64_t>(payload.size())));
    EXPECT_TRUE(run_task(sim, mgr.write(e, payload)));
    EXPECT_TRUE(run_task(sim, mgr.sync()));
    const auto back = mgr.peek(e);
    EXPECT_EQ(back, payload);
    return back.value_or(std::string{});
  };
  const std::uint64_t huge = 0xffffffffu;
  const std::string member = le(7, 8) + le(1, 8);
  const std::string extent = le(3, 8) + le(2, 4);
  const std::vector<std::pair<const char*, std::string>> bad_leaves = {
      {"2^32-1 members", le(huge, 4) + member},
      {"members past the end", le(2, 4) + member},
      {"count cut short", le(1, 2)},
      {"trailing byte", le(1, 4) + member + "x"},
  };
  for (const auto& [what, payload] : bad_leaves) {
    EXPECT_FALSE(decode_leaf(through_disk(payload))) << what;
  }
  const std::vector<std::pair<const char*, std::string>> bad_roots = {
      {"2^32-1 buckets", le(huge, 4) + extent},
      {"buckets past the end", le(2, 4) + extent},
      {"no buckets", le(0, 4)},
      {"trailing byte", le(1, 4) + extent + "x"},
  };
  for (const auto& [what, payload] : bad_roots) {
    EXPECT_FALSE(decode_root(through_disk(payload))) << what;
  }

  // The same framing with honest counts decodes, and is what encoding lays
  // out.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> members{{7, 1}};
  EXPECT_EQ(encode_leaf(members), le(1, 4) + member);
  EXPECT_EQ(decode_leaf(through_disk(le(1, 4) + member)), members);
  const std::vector<Extent> buckets{Extent{3, 2}};
  EXPECT_EQ(encode_root(buckets), le(1, 4) + extent);
  EXPECT_EQ(decode_root(through_disk(le(1, 4) + extent)), buckets);
}

// --- BlockCache -------------------------------------------------------------

TEST(BlockCache, LruOrderPinsAndCharges) {
  BlockCache cache{1024};
  Page& a = cache.insert(PageKey{1, 0}, {{1, 1}}, false);
  Page& b = cache.insert(PageKey{1, 1}, {{2, 2}, {3, 3}}, false);
  EXPECT_EQ(cache.resident_bytes(),
            BlockCache::charge_for(1) + BlockCache::charge_for(2));
  EXPECT_EQ(cache.pages(), 2u);

  // a is least recently used; peek() must not disturb that, find() must.
  EXPECT_EQ(cache.victim(), &a);
  EXPECT_EQ(cache.peek(PageKey{1, 0}), &a);
  EXPECT_EQ(cache.victim(), &a);
  EXPECT_EQ(cache.find(PageKey{1, 0}), &a);
  EXPECT_EQ(cache.victim(), &b);

  // Pinned pages are never victims.
  b.pins = 1;
  EXPECT_EQ(cache.victim(), &a);
  a.pins = 1;
  EXPECT_EQ(cache.victim(), nullptr);
  a.pins = 0;
  b.pins = 0;

  // recharge() tracks membership growth in the budget accounting.
  a.members.emplace_back(9, 9);
  cache.recharge(a);
  EXPECT_EQ(cache.resident_bytes(), 2 * BlockCache::charge_for(2));

  cache.drop_collection(1);
  EXPECT_EQ(cache.pages(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

// --- BlockEngine ------------------------------------------------------------

BlockStorageOptions engine_options() {
  BlockStorageOptions options;
  options.enabled = true;
  options.block_size = 128;
  options.cache_bytes = 64 * 1024;
  options.buckets = 8;
  options.compaction_interval = Duration::zero();
  return options;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted_members(
    const BlockEngine& engine, std::uint64_t id) {
  auto members = engine.materialize(id);
  std::sort(members.begin(), members.end());
  return members;
}

TEST(BlockEngine, InsertEraseContainsMaterialize) {
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  obs::MetricsRegistry metrics;
  BlockEngine engine{sim, disk, engine_options(), metrics};
  const std::uint64_t id = 7;
  engine.add_collection(id);

  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(engine.insert(id, i, i % 3));
  }
  EXPECT_FALSE(engine.insert(id, 5, 5 % 3));
  EXPECT_EQ(engine.size(id), 100u);
  EXPECT_TRUE(engine.contains(id, 42, 0));
  EXPECT_TRUE(engine.erase(id, 42, 0));
  EXPECT_FALSE(engine.erase(id, 42, 0));
  EXPECT_FALSE(engine.contains(id, 42, 0));
  EXPECT_EQ(engine.size(id), 99u);

  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (i != 42) expected.emplace_back(i, i % 3);
  }
  EXPECT_EQ(sorted_members(engine, id), expected);
}

TEST(BlockEngine, CheckpointWipeReconstructRoundTrip) {
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  obs::MetricsRegistry metrics;
  BlockStorageOptions options = engine_options();
  options.cache_bytes = 2048;  // far below the on-disk image
  BlockEngine engine{sim, disk, options, metrics};
  const std::uint64_t id = 7;
  engine.add_collection(id);

  for (std::uint64_t i = 0; i < 400; ++i) {
    run_task(sim, engine.fault(id, i, i % 5));
    ASSERT_TRUE(engine.insert(id, i, i % 5));
  }
  const auto before = sorted_members(engine, id);

  ProtoState proto;
  proto.incarnation = 2;
  proto.version = 400;
  proto.last_seq = 400;
  proto.applied_seq = 11;
  proto.wal_upto = 77;
  ASSERT_TRUE(run_task(sim, engine.checkpoint(id, proto)));

  engine.wipe();
  EXPECT_EQ(engine.resident_bytes(), 0u);
  const auto recovered = engine.reconstruct(id);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->incarnation, 2u);
  EXPECT_EQ(recovered->version, 400u);
  EXPECT_EQ(recovered->last_seq, 400u);
  EXPECT_EQ(recovered->applied_seq, 11u);
  EXPECT_EQ(recovered->wal_upto, 77u);

  // The member count rides in the superblock; the members themselves stay
  // on disk until faulted — reconstruction reads the superblock and root
  // only, so the recovery charge is far below the full image.
  EXPECT_EQ(engine.size(id), 400u);
  const std::uint64_t image_bytes =
      engine.file_blocks(id) * options.block_size;
  EXPECT_LT(engine.recovery_bytes(), image_bytes / 4);
  run_task(sim, engine.charge_recovery_reads());
  EXPECT_EQ(engine.recovery_bytes(), 0u);
  EXPECT_GT(metrics.counter("store.block.recovery_read_bytes"), 0u);

  EXPECT_EQ(sorted_members(engine, id), before);
}

TEST(BlockEngine, CrashMidCheckpointLeavesPreviousRootRecoverable) {
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  obs::MetricsRegistry metrics;
  BlockEngine engine{sim, disk, engine_options(), metrics};
  const std::uint64_t id = 3;
  engine.add_collection(id);

  for (std::uint64_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(engine.insert(id, i, 1));
  }
  ProtoState first;
  first.version = 120;
  first.last_seq = 120;
  ASSERT_TRUE(run_task(sim, engine.checkpoint(id, first)));
  const auto published = sorted_members(engine, id);

  // Mutate, then crash while the second checkpoint's extent writes are in
  // flight (the first write alone costs >= 50us of simulated time).
  for (std::uint64_t i = 200; i < 260; ++i) {
    ASSERT_TRUE(engine.insert(id, i, 1));
  }
  ProtoState second;
  second.version = 180;
  second.last_seq = 180;
  sim.schedule(Duration::micros(10), [&disk] { disk.crash(); });
  EXPECT_FALSE(run_task(sim, engine.checkpoint(id, second)));

  engine.wipe();
  const auto recovered = engine.reconstruct(id);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->version, 120u);
  EXPECT_EQ(recovered->last_seq, 120u);
  EXPECT_EQ(engine.size(id), 120u);
  EXPECT_EQ(sorted_members(engine, id), published);
}

TEST(BlockEngine, FreeListSurvivesReconstructExactly) {
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  obs::MetricsRegistry metrics;
  BlockEngine engine{sim, disk, engine_options(), metrics};
  const std::uint64_t id = 9;
  engine.add_collection(id);

  for (std::uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(engine.insert(id, i, 0));
  }
  ProtoState proto;
  ASSERT_TRUE(run_task(sim, engine.checkpoint(id, proto)));
  for (std::uint64_t i = 0; i < 300; i += 2) {
    ASSERT_TRUE(engine.erase(id, i, 0));
  }
  // Two checkpoints: the first rewrites the shrunken buckets and retires
  // the old extents, the second's publish returns them to the free list.
  ASSERT_TRUE(run_task(sim, engine.checkpoint(id, proto)));
  ASSERT_TRUE(run_task(sim, engine.checkpoint(id, proto)));

  const std::uint64_t file_before = engine.file_blocks(id);
  const std::uint64_t free_before = engine.free_blocks(id);
  engine.wipe();
  ASSERT_TRUE(engine.reconstruct(id).has_value());
  EXPECT_EQ(engine.file_blocks(id), file_before);
  EXPECT_EQ(engine.free_blocks(id), free_before);
  EXPECT_EQ(engine.size(id), 150u);
}

TEST(BlockEngine, CompactionRelocatesLiveExtentsAndShrinksFile) {
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  obs::MetricsRegistry metrics;
  BlockStorageOptions options = engine_options();
  options.fragmentation_threshold = 0.3;
  options.compaction_min_blocks = 4;
  BlockEngine engine{sim, disk, options, metrics};
  const std::uint64_t id = 5;
  engine.add_collection(id);

  // The first checkpoint lays buckets out in ascending order, so the
  // highest-numbered bucket gets the highest extent. Keeping only its
  // members strands a live extent at the top of the file with a sea of
  // free blocks below — tail trimming alone cannot shrink that.
  constexpr std::uint64_t kBucketSeed = 0x77654b53;
  const auto bucket_of = [&options](std::uint64_t object, std::uint64_t home) {
    return static_cast<std::uint32_t>(
        hash_combine(hash_combine(kBucketSeed, object), home) %
        options.buckets);
  };
  for (std::uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(engine.insert(id, i, 0));
  }
  ProtoState proto;
  ASSERT_TRUE(run_task(sim, engine.checkpoint(id, proto)));
  const std::uint32_t keep = options.buckets - 1;
  for (std::uint64_t i = 0; i < 400; ++i) {
    if (bucket_of(i, 0) != keep) {
      ASSERT_TRUE(engine.erase(id, i, 0));
    }
  }
  ASSERT_TRUE(run_task(sim, engine.checkpoint(id, proto)));
  ASSERT_TRUE(run_task(sim, engine.checkpoint(id, proto)));
  const std::uint64_t fragmented = engine.file_blocks(id);
  ASSERT_GT(engine.free_blocks(id), 0u);

  std::uint32_t total_moves = 0;
  for (int round = 0; round < 16; ++round) {
    const std::uint32_t moves = run_task(sim, engine.compact_round(id));
    if (moves == 0) break;
    total_moves += moves;
    ASSERT_TRUE(run_task(sim, engine.checkpoint(id, proto)));
    ASSERT_TRUE(run_task(sim, engine.checkpoint(id, proto)));
  }
  EXPECT_GT(total_moves, 0u);
  EXPECT_LT(engine.file_blocks(id), fragmented);
  EXPECT_EQ(metrics.counter("store.block.compaction_moves"), total_moves);

  // Compaction moved data, never lost it.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
  for (std::uint64_t i = 0; i < 400; ++i) {
    if (bucket_of(i, 0) == keep) expected.emplace_back(i, 0);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(sorted_members(engine, id), expected);
}

TEST(BlockEngine, CacheStaysBoundedUnderTenfoldOnDiskImage) {
  Simulator sim;
  SimDisk disk{sim, disk_options()};
  obs::MetricsRegistry metrics;
  BlockStorageOptions options = engine_options();
  options.cache_bytes = 2048;
  options.buckets = 64;
  BlockEngine engine{sim, disk, options, metrics};
  const std::uint64_t id = 1;
  engine.add_collection(id);

  // The server's data path: a timed fault (which enforces the budget)
  // precedes every synchronous membership op.
  const std::uint64_t slack = BlockCache::charge_for(64);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    run_task(sim, engine.fault(id, i, i % 7));
    ASSERT_TRUE(engine.insert(id, i, i % 7));
    ASSERT_LE(engine.resident_bytes(), options.cache_bytes + slack);
  }
  ProtoState proto;
  ASSERT_TRUE(run_task(sim, engine.checkpoint(id, proto)));
  ASSERT_LE(engine.resident_bytes(), options.cache_bytes);

  // On-disk image at least 10x the cache budget, served correctly.
  EXPECT_GE(engine.file_blocks(id) * options.block_size,
            10 * options.cache_bytes);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    run_task(sim, engine.fault(id, i, i % 7));
    ASSERT_TRUE(engine.contains(id, i, i % 7));
    ASSERT_LE(engine.resident_bytes(), options.cache_bytes + slack);
  }
  EXPECT_EQ(engine.size(id), 2000u);

  EXPECT_GT(metrics.counter("store.block.cache_misses"), 0u);
  EXPECT_GT(metrics.counter("store.block.cache_hits"), 0u);
  EXPECT_GT(metrics.counter("store.block.evictions"), 0u);
  EXPECT_GT(metrics.counter("store.block.dirty_writebacks"), 0u);
  EXPECT_GT(metrics.counter("store.block.checkpoint_blocks_written"), 0u);
}

// --- determinism ------------------------------------------------------------

using Fingerprint =
    std::tuple<std::int64_t,  // virtual clock at the end
               std::vector<std::pair<std::uint64_t, std::uint64_t>>,
               std::uint64_t,  // file blocks
               std::uint64_t,  // free blocks
               std::uint64_t,  // cache misses
               std::uint64_t,  // dirty write-backs
               std::uint64_t>;  // recovery bytes charged

Fingerprint run_crash_scenario(std::uint64_t seed) {
  Simulator sim;
  SimDiskOptions disk_opts = disk_options(seed);
  disk_opts.torn_tail_probability = 1.0;
  SimDisk disk{sim, disk_opts};
  obs::MetricsRegistry metrics;
  BlockStorageOptions options = engine_options();
  options.cache_bytes = 2048;
  BlockEngine engine{sim, disk, options, metrics};
  const std::uint64_t id = 4;
  engine.add_collection(id);

  for (std::uint64_t i = 0; i < 300; ++i) {
    run_task(sim, engine.fault(id, i, i % 2));
    engine.insert(id, i, i % 2);
  }
  ProtoState proto;
  proto.version = 300;
  run_task(sim, engine.checkpoint(id, proto));
  for (std::uint64_t i = 0; i < 300; i += 3) {
    run_task(sim, engine.fault(id, i, i % 2));
    engine.erase(id, i, i % 2);
  }
  sim.schedule(Duration::micros(30), [&disk] { disk.crash(); });
  proto.version = 400;
  run_task(sim, engine.checkpoint(id, proto));

  engine.wipe();
  engine.reconstruct(id);
  run_task(sim, engine.charge_recovery_reads());

  return Fingerprint{sim.now().count_nanos(),
                     sorted_members(engine, id),
                     engine.file_blocks(id),
                     engine.free_blocks(id),
                     metrics.counter("store.block.cache_misses"),
                     metrics.counter("store.block.dirty_writebacks"),
                     metrics.counter("store.block.recovery_read_bytes")};
}

TEST(BlockEngine, CrashRecoveryScenarioIsDeterministic) {
  EXPECT_EQ(run_crash_scenario(11), run_crash_scenario(11));
  EXPECT_EQ(run_crash_scenario(12), run_crash_scenario(12));
  // Different lottery seeds are allowed to land different outcomes, but the
  // collection contents must survive either way: everything not erased is
  // in the recovered image (the erases' WAL tail would re-apply on top).
  const auto a = run_crash_scenario(11);
  const auto& members = std::get<1>(a);
  for (std::uint64_t i = 0; i < 300; ++i) {
    if (i % 3 == 0) continue;
    const bool present = std::find(members.begin(), members.end(),
                                   std::make_pair(i, i % 2)) != members.end();
    EXPECT_TRUE(present) << "member " << i << " missing after recovery";
  }
}

}  // namespace
}  // namespace weakset::block
