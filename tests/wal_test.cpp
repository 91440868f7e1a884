// Tests for the durable storage engine (DESIGN.md decision 11): the
// simulated disk and its crash lottery, the WAL/checkpoint codec, the
// group-commit writer, and amnesia crash recovery end to end through the
// store layer.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "store/client.hpp"
#include "store/repository.hpp"
#include "wal/sim_disk.hpp"
#include "wal/wal.hpp"

namespace weakset {
namespace {

// --- SimDisk ---------------------------------------------------------------

TEST(SimDisk, AppendIsFreeSyncChargesTheCostModel) {
  Simulator sim;
  SimDisk disk{sim, SimDiskOptions{}};
  disk.append_record("wal", std::string(100, 'x'));
  EXPECT_EQ(disk.log_next_index("wal"), 1u);
  EXPECT_EQ(disk.log_durable_upto("wal"), 0u);
  EXPECT_EQ(disk.log_pending_bytes("wal"), 100u);

  const std::uint64_t upto = run_task(sim, disk.sync("wal"));
  EXPECT_EQ(upto, 1u);
  EXPECT_EQ(disk.log_durable_upto("wal"), 1u);
  EXPECT_EQ(disk.log_pending_bytes("wal"), 0u);
  // kWriteLatency + 100 B * kWritePerByte + kFsyncLatency, nothing else.
  EXPECT_EQ(sim.now() - SimTime{},
            SimDisk::kWriteLatency + Duration::nanos(100 * 15) +
                SimDisk::kFsyncLatency);
}

TEST(SimDisk, IndicesStayAbsoluteAcrossTruncation) {
  Simulator sim;
  SimDisk disk{sim, SimDiskOptions{}};
  for (int i = 0; i < 5; ++i) {
    disk.append_record("wal", "r" + std::to_string(i));
  }
  run_task(sim, disk.sync("wal"));
  disk.truncate_log_prefix("wal", 3);

  const SimDisk::LogContents contents = disk.peek_log("wal");
  EXPECT_EQ(contents.start, 3u);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_EQ(contents.records[0], "r3");
  EXPECT_FALSE(contents.torn);
  // The next append keeps counting where the log left off.
  EXPECT_EQ(disk.append_record("wal", "r5"), 5u);
}

TEST(SimDisk, CrashKeepsTheDurablePrefixAndIsDeterministic) {
  const auto run_once = [](std::uint64_t seed) {
    Simulator sim;
    SimDiskOptions options;
    options.seed = seed;
    SimDisk disk{sim, options};
    disk.append_record("wal", "a");
    disk.append_record("wal", "b");
    run_task(sim, disk.sync("wal"));  // durable frontier: 2
    for (int i = 0; i < 4; ++i) disk.append_record("wal", "pending");
    disk.crash();
    const SimDisk::LogContents contents = disk.peek_log("wal");
    return std::make_tuple(contents.records.size(), contents.torn,
                           disk.generation());
  };
  const auto [kept, torn, generation] = run_once(123);
  // Fsynced records always survive; pending ones only by lottery.
  EXPECT_GE(kept, 2u);
  EXPECT_LE(kept, 6u);
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(run_once(123), run_once(123));
}

TEST(SimDisk, LossyCrashesReportTornTailsWhenForced) {
  Simulator sim;
  SimDiskOptions options;
  options.torn_tail_probability = 1.0;
  SimDisk disk{sim, options};
  // Several crash rounds: every round that loses a pending record must
  // report a torn tail (probability forced to 1), and with 6 pending
  // records per round at least one round loses some.
  std::size_t lossy_rounds = 0;
  for (int round = 0; round < 10; ++round) {
    const std::uint64_t base = disk.log_next_index("wal");
    for (int i = 0; i < 6; ++i) disk.append_record("wal", "p");
    disk.crash();
    const SimDisk::LogContents contents = disk.peek_log("wal");
    const std::uint64_t kept =
        contents.start + contents.records.size() - base;
    if (kept < 6) {
      ++lossy_rounds;
      EXPECT_TRUE(contents.torn);
    }
  }
  EXPECT_GT(lossy_rounds, 0u);
}

TEST(SimDisk, AtomicFileWriteIsAllOrNothing) {
  Simulator sim;
  SimDisk disk{sim, SimDiskOptions{}};
  ASSERT_TRUE(run_task(sim, disk.write_file("ckpt", "v1")));
  EXPECT_EQ(disk.peek_file("ckpt").value(), "v1");

  // Crash while the second write is in flight: old content is retained.
  sim.schedule(Duration::micros(10), [&disk] { disk.crash(); });
  EXPECT_FALSE(run_task(sim, disk.write_file("ckpt", "v2")));
  EXPECT_EQ(disk.peek_file("ckpt").value(), "v1");
  EXPECT_FALSE(disk.peek_file("never-written").has_value());
}

// --- codec -----------------------------------------------------------------

TEST(WalCodec, RecordRoundTrips) {
  const wal::WalRecord rec{.collection = 7,
                           .kind = 1,
                           .object = 123,
                           .home = 4,
                           .seq = 99,
                           .incarnation = 3};
  const std::string bytes = wal::encode(rec);
  const auto back = wal::decode_record(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->collection, rec.collection);
  EXPECT_EQ(back->kind, rec.kind);
  EXPECT_EQ(back->object, rec.object);
  EXPECT_EQ(back->home, rec.home);
  EXPECT_EQ(back->seq, rec.seq);
  EXPECT_EQ(back->incarnation, rec.incarnation);
}

TEST(WalCodec, AnySingleByteCorruptionIsRejected) {
  const std::string bytes =
      wal::encode(wal::WalRecord{.collection = 1,
                                 .kind = 0,
                                 .object = 2,
                                 .home = 3,
                                 .seq = 4,
                                 .incarnation = 1});
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    EXPECT_FALSE(wal::decode_record(corrupt).has_value()) << "byte " << i;
  }
  // Torn (short) and over-long inputs are rejected too.
  EXPECT_FALSE(wal::decode_record(bytes.substr(0, bytes.size() - 1)));
  EXPECT_FALSE(wal::decode_record(bytes + "x"));
  EXPECT_FALSE(wal::decode_record(""));
}

TEST(WalCodec, CheckpointRoundTrips) {
  wal::CheckpointImage image;
  image.collections.push_back(wal::CollectionImage{
      .collection = 1,
      .incarnation = 2,
      .version = 9,
      .last_seq = 7,
      .applied_seq = 7,
      .members = {{10, 1}, {11, 2}, {12, 1}}});
  image.collections.push_back(wal::CollectionImage{.collection = 2,
                                                   .incarnation = 1,
                                                   .version = 0,
                                                   .last_seq = 0,
                                                   .applied_seq = 0,
                                                   .members = {}});
  const std::string bytes = wal::encode(image);
  const auto back = wal::decode_checkpoint(bytes);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->collections.size(), 2u);
  EXPECT_EQ(back->collections[0].collection, 1u);
  EXPECT_EQ(back->collections[0].incarnation, 2u);
  EXPECT_EQ(back->collections[0].version, 9u);
  EXPECT_EQ(back->collections[0].last_seq, 7u);
  EXPECT_EQ(back->collections[0].members, image.collections[0].members);
  EXPECT_TRUE(back->collections[1].members.empty());

  EXPECT_FALSE(wal::decode_checkpoint(bytes.substr(0, bytes.size() - 1)));
  EXPECT_FALSE(wal::decode_checkpoint(bytes + "x"));
}

/// Little-endian bytes of `v`, as the codec lays out every integer.
std::string le64(std::uint64_t v) {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  return out;
}

/// `payload` with its checksum appended, as the codec seals it.
std::string sealed(const std::string& payload) {
  return payload + le64(wal::checksum(payload));
}

wal::CheckpointImage image_with_orsets() {
  wal::CheckpointImage image;
  image.collections.push_back(wal::CollectionImage{.collection = 1,
                                                   .incarnation = 2,
                                                   .version = 9,
                                                   .last_seq = 7,
                                                   .applied_seq = 7,
                                                   .members = {{10, 1}}});
  image.orsets.push_back(wal::OrSetImage{
      .collection = 3,
      .context_vector = {{0x10001, 4}, {0x20001, 0}},
      .context_cloud = {{0x20001, 2}, {0x20001, 5}},
      .live = {{.object = 11, .home = 2, .origin = 0x10001, .counter = 3},
               {.object = 12, .home = 1, .origin = 0x20001, .counter = 5}}});
  image.orsets.push_back(wal::OrSetImage{.collection = 4});
  return image;
}

TEST(WalCodec, CheckpointWithOrSetImagesRoundTrips) {
  const wal::CheckpointImage image = image_with_orsets();
  const auto back = wal::decode_checkpoint(wal::encode(image));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->collections.size(), 1u);
  EXPECT_EQ(back->collections[0].members, image.collections[0].members);
  ASSERT_EQ(back->orsets.size(), 2u);
  for (std::size_t i = 0; i < image.orsets.size(); ++i) {
    EXPECT_EQ(back->orsets[i].collection, image.orsets[i].collection);
    EXPECT_EQ(back->orsets[i].context_vector, image.orsets[i].context_vector);
    EXPECT_EQ(back->orsets[i].context_cloud, image.orsets[i].context_cloud);
    EXPECT_EQ(back->orsets[i].live, image.orsets[i].live);
  }
}

TEST(WalCodec, CheckpointWithoutOrSetsKeepsItsLayout) {
  wal::CheckpointImage image;
  image.collections.push_back(
      wal::CollectionImage{.collection = 5,
                           .incarnation = 1,
                           .version = 3,
                           .last_seq = 4,
                           .applied_seq = 2,
                           .members = {{7, 1}, {8, 2}}});
  // Count, then per collection five fields, the member count and the
  // pairs: no OR-Set count follows when there is no OR-Set fragment.
  const std::string payload = le64(1) + le64(5) + le64(1) + le64(3) +
                              le64(4) + le64(2) + le64(2) + le64(7) +
                              le64(1) + le64(8) + le64(2);
  EXPECT_EQ(wal::encode(image), sealed(payload));
  EXPECT_EQ(wal::encode(wal::CheckpointImage{}), sealed(le64(0)));
}

TEST(WalCodec, CheckpointDecodeRejectsTruncationAndOversizedCounts) {
  const std::string bytes = wal::encode(image_with_orsets());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(wal::decode_checkpoint(bytes.substr(0, len))) << len;
  }
  // Counts that the bytes after them cannot hold, under a valid checksum.
  // 2^60 * 16 and 2^59 * 32 wrap to 0 in 64 bits: a decoder that checks
  // `n * size` against the bytes left would pass them and then reserve.
  const std::uint64_t wraps16 = std::uint64_t{1} << 60;
  const std::uint64_t wraps32 = std::uint64_t{1} << 59;
  const std::string collection = le64(5) + le64(1) + le64(0) + le64(0) +
                                 le64(0);
  const std::string orset = le64(0) + le64(1) + le64(3);  // no collection
  const std::vector<std::pair<const char*, std::string>> bad = {
      {"collections wrap", le64(wraps16)},
      {"collections past the end", le64(2) + collection + le64(0)},
      {"members wrap", le64(1) + collection + le64(wraps16)},
      {"members past the end",
       le64(1) + collection + le64(2) + le64(7) + le64(1)},
      {"OR-Sets wrap", le64(0) + le64(wraps16)},
      {"OR-Set cut short", orset},
      {"context vector wraps", orset + le64(wraps16)},
      {"context cloud past the end", orset + le64(0) + le64(1)},
      {"live dots wrap", orset + le64(0) + le64(0) + le64(wraps32)},
      {"trailing byte", orset + le64(0) + le64(0) + le64(0) + "x"},
  };
  for (const auto& [what, payload] : bad) {
    EXPECT_FALSE(wal::decode_checkpoint(sealed(payload))) << what;
  }
  // The same framing with honest counts decodes.
  EXPECT_TRUE(wal::decode_checkpoint(sealed(le64(1) + collection + le64(0))));
  EXPECT_TRUE(wal::decode_checkpoint(
      sealed(orset + le64(0) + le64(0) + le64(0))));
}

// --- WalWriter -------------------------------------------------------------

wal::WalRecord make_record(std::uint64_t seq) {
  return wal::WalRecord{.collection = 1,
                        .kind = 0,
                        .object = seq,
                        .home = 1,
                        .seq = seq,
                        .incarnation = 1};
}

TEST(WalWriter, GroupCommitBatchesAppendsIntoOneFsync) {
  Simulator sim;
  SimDisk disk{sim, SimDiskOptions{}};
  obs::MetricsRegistry reg;
  wal::WalWriter writer{sim, disk, "wal", Duration::millis(2), &reg};
  std::uint64_t last = 0;
  for (std::uint64_t i = 1; i <= 5; ++i) last = writer.append(make_record(i));
  EXPECT_EQ(last, 4u);  // absolute indices from 0

  EXPECT_TRUE(run_task(sim, writer.wait_durable(last)));
  EXPECT_EQ(reg.counter("wal.appends"), 5u);
  EXPECT_EQ(reg.counter("wal.fsyncs"), 1u);  // one barrier for the batch
  EXPECT_EQ(reg.counter("wal.records_synced"), 5u);
  EXPECT_EQ(disk.log_durable_upto("wal"), 5u);
  // The commit waited for the group-commit window.
  EXPECT_GE(sim.now() - SimTime{}, Duration::millis(2));
}

TEST(WalWriter, WaitDurableFailsWhenTheNodeCrashesFirst) {
  Simulator sim;
  SimDisk disk{sim, SimDiskOptions{}};
  obs::MetricsRegistry reg;
  wal::WalWriter writer{sim, disk, "wal", Duration::millis(2), &reg};
  const std::uint64_t index = writer.append(make_record(1));
  bool durable = true;
  sim.spawn([](wal::WalWriter& w, std::uint64_t idx,
               bool& out) -> Task<void> {
    out = co_await w.wait_durable(idx);
  }(writer, index, durable));
  sim.schedule(Duration::micros(100), [&disk, &writer] {
    disk.crash();
    writer.on_crash();
  });
  sim.run();
  EXPECT_FALSE(durable);
}

TEST(WalWriter, NotifyProgressWakesWaitersAfterTruncation) {
  Simulator sim;
  SimDisk disk{sim, SimDiskOptions{}};
  obs::MetricsRegistry reg;
  wal::WalWriter writer{sim, disk, "wal", Duration::seconds(10), &reg};
  const std::uint64_t index = writer.append(make_record(1));
  bool durable = false;
  bool resolved = false;
  sim.spawn([](wal::WalWriter& w, std::uint64_t idx, bool& out,
               bool& done) -> Task<void> {
    out = co_await w.wait_durable(idx);
    done = true;
  }(writer, index, durable, resolved));
  // A checkpoint covering the record truncates it away: durable without any
  // fsync ever firing.
  sim.schedule(Duration::micros(100), [&disk, &writer] {
    disk.truncate_log_prefix("wal", 1);
    writer.notify_progress();
  });
  while (!resolved && sim.step()) {
  }
  EXPECT_TRUE(resolved);
  EXPECT_TRUE(durable);
  EXPECT_EQ(reg.counter("wal.fsyncs"), 0u);
}

// --- store-layer crash recovery --------------------------------------------

class DurableRepoTest : public ::testing::Test {
 protected:
  DurableRepoTest() {
    client_node = topo.add_node("client");
    for (int i = 0; i < 2; ++i) {
      server_nodes.push_back(topo.add_node("server" + std::to_string(i)));
    }
    topo.connect_full_mesh(Duration::millis(5));
  }

  ~DurableRepoTest() override {
    repo.stop_all_daemons();
    sim.run();
  }

  void build(StoreServerOptions options) {
    for (const NodeId node : server_nodes) repo.add_server(node, options);
  }

  static StoreServerOptions durable_options() {
    StoreServerOptions options;
    options.durability.durable_acks = true;
    options.durability.fsync_interval = Duration::millis(1);
    options.durability.checkpoint_interval = Duration::millis(50);
    return options;
  }

  void sleep_for(Duration d) {
    run_task(sim, [](Simulator& s, Duration dd) -> Task<void> {
      co_await s.delay(dd);
    }(sim, d));
  }

  Simulator sim;
  Topology topo;
  NodeId client_node;
  std::vector<NodeId> server_nodes;
  RpcNetwork net{sim, topo, Rng{7}};
  Repository repo{net};
};

TEST_F(DurableRepoTest, DurablyAckedMutationsSurviveAmnesiaCrash) {
  build(durable_options());
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  RepositoryClient client{repo, client_node};
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 3; ++i) {
    refs.push_back(
        repo.create_object(server_nodes[1], "o" + std::to_string(i)));
    ASSERT_TRUE(run_task(sim, client.add(coll, refs.back())).value_or(false));
  }
  // Every ack was durable: the crash has nothing to un-do, so the ground
  // truth sees no compensating mutations.
  std::size_t compensators = 0;
  repo.add_mutation_observer(
      [&compensators](CollectionId, CollectionOp::Kind, ObjectRef) {
        ++compensators;
      });
  topo.crash(server_nodes[0], Topology::CrashKind::kAmnesia);
  EXPECT_EQ(compensators, 0u);
  EXPECT_FALSE(run_task(sim, client.read_all(coll)).has_value());

  topo.restart(server_nodes[0]);
  EXPECT_FALSE(repo.server_at(server_nodes[0])->serving());
  const auto after = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(std::set<ObjectRef>(after.value().begin(), after.value().end()),
            std::set<ObjectRef>(refs.begin(), refs.end()));
  EXPECT_TRUE(repo.server_at(server_nodes[0])->serving());
}

TEST_F(DurableRepoTest, AsyncModeCrashEmitsCompensatingGroundTruth) {
  StoreServerOptions options;
  options.durability.durable_acks = false;
  // Nothing gets durable on its own before the crash.
  options.durability.fsync_interval = Duration::seconds(100);
  options.durability.checkpoint_interval = Duration::seconds(100);
  build(options);
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  RepositoryClient client{repo, client_node};
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 5; ++i) {
    refs.push_back(
        repo.create_object(server_nodes[1], "o" + std::to_string(i)));
    ASSERT_TRUE(run_task(sim, client.add(coll, refs.back())).value_or(false));
  }
  std::vector<std::pair<CollectionOp::Kind, ObjectRef>> events;
  repo.add_mutation_observer(
      [&events](CollectionId, CollectionOp::Kind kind, ObjectRef ref) {
        events.emplace_back(kind, ref);
      });
  topo.crash(server_nodes[0], Topology::CrashKind::kAmnesia);

  // In-memory state now equals the durable reconstruction; whatever the
  // crash lottery dropped was reported as a compensating remove.
  const CollectionState* state =
      repo.server_at(server_nodes[0])->collection(coll);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(events.size(), refs.size() - state->size());
  for (const auto& [kind, ref] : events) {
    EXPECT_EQ(kind, CollectionOp::Kind::kRemove);
    EXPECT_FALSE(state->contains(ref));
  }
}

TEST_F(DurableRepoTest, TransientCrashKeepsVolatileState) {
  StoreServerOptions options;
  options.durability.fsync_interval = Duration::seconds(100);
  build(options);
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  RepositoryClient client{repo, client_node};
  const ObjectRef obj = repo.create_object(server_nodes[1], "x");
  ASSERT_TRUE(run_task(sim, client.add(coll, obj)).value_or(false));

  topo.crash(server_nodes[0]);  // default: transient — memory intact
  const CollectionState* state =
      repo.server_at(server_nodes[0])->collection(coll);
  EXPECT_EQ(state->size(), 1u);
  topo.restart(server_nodes[0]);
  EXPECT_TRUE(repo.server_at(server_nodes[0])->serving());
  const auto after = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after.value().size(), 1u);
}

TEST_F(DurableRepoTest, RecoveryBumpsIncarnationAndForcesDeltaResync) {
  build(durable_options());
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  ClientOptions copts;
  copts.read_policy = ReadPolicy::kPrimaryOnly;
  RepositoryClient client{repo, client_node, copts};
  const ObjectRef o1 = repo.create_object(server_nodes[1], "a");
  const ObjectRef o2 = repo.create_object(server_nodes[1], "b");
  ASSERT_TRUE(run_task(sim, client.add(coll, o1)).value_or(false));
  ASSERT_TRUE(run_task(sim, client.read_all(coll)).has_value());  // seed cache
  ASSERT_TRUE(run_task(sim, client.add(coll, o2)).value_or(false));
  ASSERT_TRUE(run_task(sim, client.read_all(coll)).has_value());
  EXPECT_EQ(client.last_read_delta(), 1u);  // incremental while healthy

  topo.crash(server_nodes[0], Topology::CrashKind::kAmnesia);
  topo.restart(server_nodes[0]);
  sleep_for(Duration::millis(20));  // recovery completes

  // The recovered primary runs a fresh op-stream incarnation: the client's
  // cached cursor is from the old stream, so the server resyncs it with a
  // full snapshot instead of serving unrelated sequence numbers.
  const auto after = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(client.last_read_full(), 1u);
  EXPECT_EQ(client.last_read_delta(), 0u);
  EXPECT_EQ(after.value().size(), 2u);

  const CollectionState* state =
      repo.server_at(server_nodes[0])->collection(coll);
  EXPECT_EQ(state->incarnation(), 2u);
}

TEST_F(DurableRepoTest, ReplicaAdoptsRecoveredPrimaryIncarnation) {
  build(durable_options());
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  repo.add_replica(coll, 0, server_nodes[1]);
  RepositoryClient client{repo, client_node};
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 3; ++i) {
    refs.push_back(
        repo.create_object(server_nodes[1], "o" + std::to_string(i)));
  }
  for (const ObjectRef ref : refs) {
    ASSERT_TRUE(run_task(sim, client.add(coll, ref)).value_or(false));
  }
  sleep_for(Duration::millis(200));  // anti-entropy converges the replica

  const CollectionState* primary =
      repo.server_at(server_nodes[0])->collection(coll);
  const CollectionState* replica =
      repo.server_at(server_nodes[1])->collection(coll);
  ASSERT_EQ(replica->size(), 3u);

  topo.crash(server_nodes[0], Topology::CrashKind::kAmnesia);
  topo.restart(server_nodes[0]);
  sleep_for(Duration::millis(300));  // recovery + a few pull rounds

  // The replica noticed the incarnation mismatch, took a snapshot resync,
  // and now tracks the new op stream.
  EXPECT_EQ(primary->incarnation(), 2u);
  EXPECT_EQ(replica->incarnation(), 2u);
  EXPECT_EQ(replica->members(), primary->members());
}

TEST(DurableRecoveryDeterminism, SameSeedExportsByteIdenticalMetrics) {
  const auto run_once = []() {
    obs::MetricsRegistry reg;
    Simulator sim;
    Topology topo;
    const NodeId client_node = topo.add_node("client");
    const NodeId s0 = topo.add_node("s0");
    const NodeId s1 = topo.add_node("s1");
    topo.connect_full_mesh(Duration::millis(5));
    RpcNetwork net{sim, topo, Rng{7}};
    Repository repo{net};
    StoreServerOptions options;
    options.durability.durable_acks = true;
    options.durability.fsync_interval = Duration::millis(1);
    options.durability.checkpoint_interval = Duration::millis(20);
    options.metrics = &reg;
    repo.add_server(s0, options);
    repo.add_server(s1, options);
    const CollectionId coll = repo.create_collection({s0});
    ClientOptions copts;
    copts.metrics = &reg;
    RepositoryClient client{repo, client_node, copts};
    for (int i = 0; i < 4; ++i) {
      const ObjectRef ref = repo.create_object(s1, "o" + std::to_string(i));
      EXPECT_TRUE(run_task(sim, client.add(coll, ref)).value_or(false));
    }
    topo.crash(s0, Topology::CrashKind::kAmnesia);
    topo.restart(s0);
    EXPECT_TRUE(run_task(sim, client.read_all(coll)).has_value());
    repo.stop_all_daemons();
    sim.run();
    EXPECT_GE(reg.counter("wal.recoveries"), 1u);
    return reg.to_json();
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- block devices (DESIGN.md decision 17) ---------------------------------

TEST(SimDisk, ExtentWritesBufferUntilDeviceSync) {
  Simulator sim;
  SimDiskOptions options;
  options.torn_tail_probability = 0.0;
  SimDisk disk{sim, options};

  // Buffered extents are visible to reads but volatile to crashes.
  ASSERT_TRUE(run_task(
      sim, disk.write_extent("dev", 0, {std::string(64, 'a'),
                                        std::string(64, 'b')})));
  EXPECT_EQ(disk.device_pending_bytes("dev"), 128u);
  auto blocks = run_task(sim, disk.read_extent("dev", 0, 2));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], std::string(64, 'a'));
  EXPECT_EQ(blocks[1], std::string(64, 'b'));

  ASSERT_TRUE(run_task(sim, disk.sync_device("dev")));
  EXPECT_EQ(disk.device_pending_bytes("dev"), 0u);
  ASSERT_TRUE(run_task(
      sim, disk.write_extent("dev", 2, {std::string(64, 'c')})));
  disk.crash();

  // The synced extent survived; the buffered one is gone (lottery disabled
  // for this test: uniform(1) on a single pending write can keep it, so use
  // what the lottery decided only through the torn knob being off).
  EXPECT_EQ(disk.peek_block("dev", 0), std::string(64, 'a'));
  EXPECT_EQ(disk.peek_block("dev", 1), std::string(64, 'b'));
  const auto third = disk.peek_block("dev", 2);
  if (third.has_value()) {
    EXPECT_EQ(*third, std::string(64, 'c'));
  }
}

TEST(SimDisk, CrashLotteryKeepsExtentPrefixAndTearsByWholeBlocks) {
  // Multi-block extent writes x the torn-tail lottery: after a crash, the
  // platter holds a write-order prefix of the pending extents; the first
  // lost extent may land a prefix of whole blocks plus one half-written
  // block (first byte XOR 0x5a) — never anything else. Sweep seeds to see
  // every outcome at least once.
  int full_survivals = 0;
  int torn_blocks = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    Simulator sim;
    SimDiskOptions options;
    options.seed = seed;
    options.torn_tail_probability = 1.0;
    SimDisk disk{sim, options};

    // Three pending two-block extents with distinct recognisable content.
    std::vector<std::string> written;
    for (std::uint64_t e = 0; e < 3; ++e) {
      std::vector<std::string> blocks;
      for (std::uint64_t b = 0; b < 2; ++b) {
        blocks.push_back(std::string(64, static_cast<char>('A' + 2 * e + b)));
        written.push_back(blocks.back());
      }
      ASSERT_TRUE(run_task(sim, disk.write_extent("dev", 2 * e,
                                                  std::move(blocks))));
    }
    disk.crash();

    // Classify each block in write order: intact, torn, or absent.
    bool dead = false;     // a lost block was seen; everything after is lost
    bool tear_seen = false;
    for (std::uint64_t b = 0; b < 6; ++b) {
      const auto got = disk.peek_block("dev", b);
      if (got.has_value() && *got == written[static_cast<std::size_t>(b)]) {
        EXPECT_FALSE(dead) << "block " << b << " survived past a lost one "
                           << "(seed " << seed << ")";
        continue;
      }
      if (got.has_value()) {
        // The torn half-block: half the bytes, first byte flipped.
        EXPECT_FALSE(tear_seen) << "two torn blocks (seed " << seed << ")";
        EXPECT_FALSE(dead);
        const std::string& full = written[static_cast<std::size_t>(b)];
        std::string expect_torn = full.substr(0, full.size() / 2);
        expect_torn[0] = static_cast<char>(expect_torn[0] ^ 0x5a);
        EXPECT_EQ(*got, expect_torn) << "seed " << seed;
        tear_seen = true;
        ++torn_blocks;
      }
      dead = true;
    }
    if (!dead) ++full_survivals;
  }
  EXPECT_GT(full_survivals, 0);
  EXPECT_GT(torn_blocks, 0);
}

// --- store layer on the block storage engine -------------------------------

TEST_F(DurableRepoTest, BlockBackedMembersSurviveAmnesiaCrash) {
  StoreServerOptions options = durable_options();
  options.durability.block.enabled = true;
  options.durability.block.block_size = 256;
  options.durability.block.cache_bytes = 2048;  // force paging
  options.durability.block.buckets = 8;
  build(options);
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  RepositoryClient client{repo, client_node};
  std::vector<ObjectRef> refs;
  for (int i = 0; i < 40; ++i) {
    refs.push_back(
        repo.create_object(server_nodes[1], "o" + std::to_string(i)));
    ASSERT_TRUE(run_task(sim, client.add(coll, refs.back())).value_or(false));
  }
  sleep_for(Duration::millis(120));  // at least one block checkpoint publishes
  for (int i = 40; i < 48; ++i) {
    refs.push_back(
        repo.create_object(server_nodes[1], "o" + std::to_string(i)));
    ASSERT_TRUE(run_task(sim, client.add(coll, refs.back())).value_or(false));
  }

  // Every ack was durable: nothing to compensate across the amnesia crash.
  std::size_t compensators = 0;
  repo.add_mutation_observer(
      [&compensators](CollectionId, CollectionOp::Kind, ObjectRef) {
        ++compensators;
      });
  topo.crash(server_nodes[0], Topology::CrashKind::kAmnesia);
  EXPECT_EQ(compensators, 0u);
  topo.restart(server_nodes[0]);

  const auto after = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(std::set<ObjectRef>(after.value().begin(), after.value().end()),
            std::set<ObjectRef>(refs.begin(), refs.end()));
  auto* engine = repo.server_at(server_nodes[0])->block_engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->file_blocks(coll.raw()), 0u);
  EXPECT_EQ(engine->size(coll.raw()), refs.size());
}

TEST_F(DurableRepoTest, BlockBackedChurnCrashRecoversGroundTruth) {
  StoreServerOptions options = durable_options();
  options.durability.block.enabled = true;
  options.durability.block.block_size = 256;
  options.durability.block.cache_bytes = 2048;
  options.durability.block.buckets = 8;
  options.durability.block.compaction_interval = Duration::millis(100);
  build(options);
  const CollectionId coll = repo.create_collection({server_nodes[0]});
  RepositoryClient client{repo, client_node};
  std::vector<ObjectRef> refs;
  std::set<ObjectRef> expected;
  for (int i = 0; i < 60; ++i) {
    refs.push_back(
        repo.create_object(server_nodes[1], "o" + std::to_string(i)));
    ASSERT_TRUE(run_task(sim, client.add(coll, refs.back())).value_or(false));
    expected.insert(refs.back());
  }
  sleep_for(Duration::millis(120));
  // Heavy removal churn: shrinks buckets, retires extents, and gives the
  // compaction daemon fragmentation to chew on.
  for (int i = 0; i < 60; i += 2) {
    ASSERT_TRUE(run_task(sim, client.remove(coll, refs[static_cast<
                                                std::size_t>(i)]))
                    .value_or(false));
    expected.erase(refs[static_cast<std::size_t>(i)]);
  }
  sleep_for(Duration::millis(400));  // checkpoints + compaction rounds

  topo.crash(server_nodes[0], Topology::CrashKind::kAmnesia);
  topo.restart(server_nodes[0]);
  const auto after = run_task(sim, client.read_all(coll));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(std::set<ObjectRef>(after.value().begin(), after.value().end()),
            expected);
}

TEST(DurableRecoveryDeterminism, BlockEngineSameSeedByteIdenticalMetrics) {
  const auto run_once = []() {
    obs::MetricsRegistry reg;
    Simulator sim;
    Topology topo;
    const NodeId client_node = topo.add_node("client");
    const NodeId s0 = topo.add_node("s0");
    const NodeId s1 = topo.add_node("s1");
    topo.connect_full_mesh(Duration::millis(5));
    RpcNetwork net{sim, topo, Rng{7}};
    Repository repo{net};
    StoreServerOptions options;
    options.durability.durable_acks = true;
    options.durability.fsync_interval = Duration::millis(1);
    options.durability.checkpoint_interval = Duration::millis(20);
    options.durability.block.enabled = true;
    options.durability.block.block_size = 256;
    options.durability.block.cache_bytes = 1024;
    options.durability.block.buckets = 4;
    options.durability.block.compaction_interval = Duration::millis(50);
    options.metrics = &reg;
    repo.add_server(s0, options);
    repo.add_server(s1, options);
    const CollectionId coll = repo.create_collection({s0});
    ClientOptions copts;
    copts.metrics = &reg;
    RepositoryClient client{repo, client_node, copts};
    std::vector<ObjectRef> refs;
    for (int i = 0; i < 12; ++i) {
      refs.push_back(repo.create_object(s1, "o" + std::to_string(i)));
      EXPECT_TRUE(run_task(sim, client.add(coll, refs.back()))
                      .value_or(false));
    }
    for (int i = 0; i < 12; i += 3) {
      EXPECT_TRUE(
          run_task(sim, client.remove(coll, refs[static_cast<std::size_t>(i)]))
              .value_or(false));
    }
    topo.crash(s0, Topology::CrashKind::kAmnesia);
    topo.restart(s0);
    EXPECT_TRUE(run_task(sim, client.read_all(coll)).has_value());
    repo.stop_all_daemons();
    sim.run();
    EXPECT_GE(reg.counter("wal.recoveries"), 1u);
    EXPECT_GT(reg.counter("store.block.checkpoint_blocks_written"), 0u);
    return reg.to_json();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace weakset
