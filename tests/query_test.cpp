// Tests for the query engine: glob matching, predicate evaluation, the scan
// service, and query-defined weak sets with best-effort vs require-all reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/iterator.hpp"
#include "fs/dist_fs.hpp"
#include "query/query_set.hpp"
#include "query/scan.hpp"

namespace weakset {
namespace {

TEST(GlobTest, Literals) {
  EXPECT_TRUE(glob_match("menu.txt", "menu.txt"));
  EXPECT_FALSE(glob_match("menu.txt", "menu.txt2"));
  EXPECT_FALSE(glob_match("menu.txt", "menu.tx"));
  EXPECT_TRUE(glob_match("", ""));
}

TEST(GlobTest, Star) {
  EXPECT_TRUE(glob_match("*.face", "wing.face"));
  EXPECT_TRUE(glob_match("*.face", ".face"));
  EXPECT_FALSE(glob_match("*.face", "wing.faces"));
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("a*b*c", "axxbyyc"));
  EXPECT_FALSE(glob_match("a*b*c", "axxbyy"));
}

TEST(GlobTest, QuestionMark) {
  EXPECT_TRUE(glob_match("file?.txt", "file1.txt"));
  EXPECT_FALSE(glob_match("file?.txt", "file12.txt"));
  EXPECT_TRUE(glob_match("???", "abc"));
  EXPECT_FALSE(glob_match("???", "ab"));
}

TEST(GlobTest, StarBacktracking) {
  EXPECT_TRUE(glob_match("*ab", "aab"));
  EXPECT_TRUE(glob_match("*aab", "aaab"));
  EXPECT_TRUE(glob_match("a*a*a", "aaaa"));
}

TEST(PredicateTest, NameGlob) {
  const auto pred = PredicateSpec::name_glob("*.menu");
  EXPECT_TRUE(pred.matches(FileInfo{"golden-palace.menu", "dumplings"}));
  EXPECT_FALSE(pred.matches(FileInfo{"readme.txt", "dumplings"}));
}

TEST(PredicateTest, Contains) {
  const auto pred = PredicateSpec::contains("Wing");
  EXPECT_TRUE(pred.matches(FileInfo{"paper1", "by J. Wing and D. Steere"}));
  EXPECT_FALSE(pred.matches(FileInfo{"paper2", "by someone else"}));
}

TEST(PredicateTest, Combinators) {
  std::vector<PredicateSpec> both;
  both.push_back(PredicateSpec::name_glob("*.menu"));
  both.push_back(PredicateSpec::contains("chinese"));
  const auto pred = PredicateSpec::all_of(std::move(both));
  EXPECT_TRUE(pred.matches(FileInfo{"a.menu", "chinese cuisine"}));
  EXPECT_FALSE(pred.matches(FileInfo{"a.menu", "italian cuisine"}));
  EXPECT_FALSE(pred.matches(FileInfo{"a.txt", "chinese cuisine"}));

  const auto neither = PredicateSpec::negate(PredicateSpec::contains("x"));
  EXPECT_TRUE(neither.matches(FileInfo{"f", "abc"}));
  EXPECT_FALSE(neither.matches(FileInfo{"f", "axc"}));

  std::vector<PredicateSpec> either;
  either.push_back(PredicateSpec::name_prefix("a"));
  either.push_back(PredicateSpec::name_prefix("b"));
  const auto any = PredicateSpec::any_of(std::move(either));
  EXPECT_TRUE(any.matches(FileInfo{"alpha", ""}));
  EXPECT_TRUE(any.matches(FileInfo{"beta", ""}));
  EXPECT_FALSE(any.matches(FileInfo{"gamma", ""}));
}

class QueryTest : public ::testing::Test {
 protected:
  QueryTest() {
    client_node = topo.add_node("client");
    for (int i = 0; i < 3; ++i) {
      archives.push_back(topo.add_node("archive" + std::to_string(i)));
    }
    topo.connect_full_mesh(Duration::millis(10));
    for (const NodeId node : archives) repo.add_server(node);
    service.install_all();

    // A small library: papers by two authors plus unrelated files, spread
    // across the archives.
    fs.create_unlinked_file(archives[0], "paper-a1", "author: Wing");
    fs.create_unlinked_file(archives[0], "notes", "grocery list");
    fs.create_unlinked_file(archives[1], "paper-b1", "author: Steere");
    fs.create_unlinked_file(archives[1], "paper-a2", "author: Wing");
    fs.create_unlinked_file(archives[2], "paper-a3", "author: Wing");
    fs.create_unlinked_file(archives[2], "menu", "chinese restaurant");
  }
  ~QueryTest() override {
    repo.stop_all_daemons();
    sim.run();  // drain daemon wakeups so coroutine frames unwind (no leaks)
  }

  /// Calls of `method` the network has carried, failed ones included.
  std::uint64_t rpcs(const std::string& method) const {
    return metrics.counter("rpc." + method + ".ok") +
           metrics.counter("rpc." + method + ".failed");
  }

  Simulator sim;
  Topology topo;
  NodeId client_node;
  std::vector<NodeId> archives;
  obs::MetricsRegistry metrics;
  RpcNetwork net{sim, topo, Rng{77}, RpcOptions{.metrics = &metrics}};
  Repository repo{net};
  DistFileSystem fs{repo};
  QueryService service{repo};
};

TEST_F(QueryTest, ScanFindsMatchesAcrossNodes) {
  RepositoryClient client{repo, client_node};
  QuerySetView query{client, PredicateSpec::contains("Wing"), archives};
  const auto members = run_task(
      sim, [](QuerySetView& q) -> Task<Result<std::vector<ObjectRef>>> {
        co_return co_await q.read_members();
      }(query));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), 3u);
}

TEST_F(QueryTest, IteratingAQueryDeliversPayloads) {
  RepositoryClient client{repo, client_node};
  QuerySetView query{client, PredicateSpec::name_prefix("paper-"), archives};
  auto iterator = make_elements_iterator(query, Semantics::kFig6Optimistic);
  const DrainResult result = run_task(sim, drain(*iterator));
  EXPECT_TRUE(result.finished());
  EXPECT_EQ(result.count(), 4u);
  std::set<std::string> names;
  for (const auto& [r, v] : result.elements()) {
    names.insert(FileInfo::decode(v.data()).name());
  }
  EXPECT_EQ(names, (std::set<std::string>{"paper-a1", "paper-a2", "paper-a3",
                                          "paper-b1"}));
}

TEST_F(QueryTest, PrefetchWindowBatchesEachRefillByHome) {
  // Four matches on each of three archives; the scan lists them archive by
  // archive. Window 8's first refill takes archives 0 and 1, and once it has
  // half-drained the second takes archive 2: one store.fetch_batch per home
  // per refill, three in all, and not one store.fetch.
  for (int i = 0; i < 12; ++i) {
    fs.create_unlinked_file(archives[i % 3], "batch-" + std::to_string(i),
                            "body");
  }
  RepositoryClient client{repo, client_node};
  QuerySetView query{client, PredicateSpec::name_prefix("batch-"), archives};
  IteratorOptions options;
  options.prefetch_window = 8;
  auto iterator =
      make_elements_iterator(query, Semantics::kFig1Immutable, options);
  const DrainResult result = run_task(sim, drain(*iterator));
  EXPECT_TRUE(result.finished());
  EXPECT_EQ(result.count(), 12u);
  EXPECT_EQ(iterator->stats().prefetch_batches, 2u);
  EXPECT_EQ(rpcs("store.fetch_batch"), 3u);
  EXPECT_EQ(rpcs("store.fetch"), 0u);
}

TEST_F(QueryTest, BestEffortSkipsUnreachableArchive) {
  topo.crash(archives[2]);
  RepositoryClient client{repo, client_node};
  QuerySetView query{client, PredicateSpec::contains("Wing"), archives,
                     QueryMode::kBestEffort};
  const auto members = run_task(
      sim, [](QuerySetView& q) -> Task<Result<std::vector<ObjectRef>>> {
        co_return co_await q.read_members();
      }(query));
  ASSERT_TRUE(members.has_value());
  EXPECT_EQ(members.value().size(), 2u);  // paper-a3 is on the dead archive
  EXPECT_EQ(query.last_skipped(), 1u);
}

TEST_F(QueryTest, RequireAllFailsOnUnreachableArchive) {
  topo.crash(archives[2]);
  RepositoryClient client{repo, client_node};
  QuerySetView query{client, PredicateSpec::contains("Wing"), archives,
                     QueryMode::kRequireAll};
  const auto members = run_task(
      sim, [](QuerySetView& q) -> Task<Result<std::vector<ObjectRef>>> {
        co_return co_await q.read_members();
      }(query));
  ASSERT_FALSE(members.has_value());
  EXPECT_EQ(members.error().kind, FailureKind::kNodeCrashed);
}

TEST_F(QueryTest, SameQueryTwiceMayDiffer) {
  // "Running the same query twice in a row may return different sets of
  // elements" — here because new matching content appeared in between.
  RepositoryClient client{repo, client_node};
  QuerySetView query{client, PredicateSpec::contains("Wing"), archives};
  auto read = [](QuerySetView& q) -> Task<Result<std::vector<ObjectRef>>> {
    co_return co_await q.read_members();
  };
  const auto first = run_task(sim, read(query));
  fs.create_unlinked_file(archives[0], "paper-a4", "author: Wing");
  const auto second = run_task(sim, read(query));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first.value().size(), 3u);
  EXPECT_EQ(second.value().size(), 4u);
}

TEST_F(QueryTest, TwoClientsUnderPartitionSeeDifferentSets) {
  // "Two people running the same query at the same time may obtain
  // different sets of elements."
  const NodeId other_client = topo.add_node("client2");
  topo.connect(other_client, archives[0], Duration::millis(10));
  topo.connect(other_client, archives[1], Duration::millis(10));
  // other_client cannot reach archive 2; client can reach everything.
  RepositoryClient c1{repo, client_node};
  RepositoryClient c2{repo, other_client};
  topo.set_routing(Topology::Routing::kDirectOnly);
  // Rebuild client 1's direct links (full mesh already connected them).
  QuerySetView q1{c1, PredicateSpec::contains("Wing"), archives};
  QuerySetView q2{c2, PredicateSpec::contains("Wing"), archives};
  auto read = [](QuerySetView& q) -> Task<Result<std::vector<ObjectRef>>> {
    co_return co_await q.read_members();
  };
  const auto r1 = run_task(sim, read(q1));
  const auto r2 = run_task(sim, read(q2));
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1.value().size(), 3u);
  EXPECT_EQ(r2.value().size(), 2u);
}

TEST_F(QueryTest, QueryFreezeIsUnsupported) {
  RepositoryClient client{repo, client_node};
  QuerySetView query{client, PredicateSpec::all(), archives};
  const auto frozen = run_task(
      sim, [](QuerySetView& q) -> Task<Result<void>> {
        co_return co_await q.freeze();
      }(query));
  EXPECT_FALSE(frozen.has_value());
}

}  // namespace
}  // namespace weakset
