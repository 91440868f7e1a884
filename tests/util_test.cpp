// Unit tests for the util module: Result, Failure, Rng, ids, time, hashing,
// and the hot-path memory primitives (Arena, BlockPool, Payload, InlineFunc).

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/failure.hpp"
#include "util/hash.hpp"
#include "util/ids.hpp"
#include "util/inline_func.hpp"
#include "util/payload.hpp"
#include "util/pool.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace weakset {
namespace {

TEST(FailureTest, ToStringCoversAllKinds) {
  EXPECT_EQ(to_string(FailureKind::kTimeout), "timeout");
  EXPECT_EQ(to_string(FailureKind::kNodeCrashed), "node-crashed");
  EXPECT_EQ(to_string(FailureKind::kLinkDown), "link-down");
  EXPECT_EQ(to_string(FailureKind::kPartitioned), "partitioned");
  EXPECT_EQ(to_string(FailureKind::kUnreachable), "unreachable");
  EXPECT_EQ(to_string(FailureKind::kNotFound), "not-found");
  EXPECT_EQ(to_string(FailureKind::kCancelled), "cancelled");
  EXPECT_EQ(to_string(FailureKind::kExhausted), "exhausted");
}

TEST(FailureTest, FormatsDetail) {
  const Failure f{FailureKind::kTimeout, "fetch obj 7"};
  EXPECT_EQ(to_string(f), "timeout: fetch obj 7");
  EXPECT_EQ(to_string(Failure{FailureKind::kLinkDown, ""}), "link-down");
}

TEST(FailureTest, EqualityIgnoresDetail) {
  const Failure a{FailureKind::kTimeout, "x"};
  const Failure b{FailureKind::kTimeout, "y"};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, (Failure{FailureKind::kLinkDown, "x"}));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsFailure) {
  Result<int> r{Failure{FailureKind::kPartitioned, "node 3"}};
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, FailureKind::kPartitioned);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MapPropagatesFailure) {
  Result<int> ok{10};
  const auto doubled = ok.map([](int x) { return x * 2; });
  ASSERT_TRUE(doubled.has_value());
  EXPECT_EQ(doubled.value(), 20);

  Result<int> bad{Failure{FailureKind::kTimeout}};
  const auto mapped = bad.map([](int x) { return x * 2; });
  ASSERT_FALSE(mapped.has_value());
  EXPECT_EQ(mapped.error().kind, FailureKind::kTimeout);
}

TEST(ResultTest, VoidSpecialisation) {
  Result<void> ok = Ok();
  EXPECT_TRUE(ok.has_value());
  Result<void> bad{Failure{FailureKind::kCancelled}};
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().kind, FailureKind::kCancelled);
}

struct TestTag {};
using TestId = Id<TestTag>;

TEST(IdTest, InvalidByDefault) {
  TestId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, TestId::invalid());
}

TEST(IdTest, SequenceMintsDistinctIds) {
  IdSequence<TestTag> seq;
  std::set<TestId> seen;
  for (int i = 0; i < 100; ++i) seen.insert(seq.next());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(seq.minted(), 100u);
  for (const auto id : seen) EXPECT_TRUE(id.valid());
}

TEST(IdTest, Hashable) {
  std::unordered_set<TestId> set;
  IdSequence<TestTag> seq;
  for (int i = 0; i < 64; ++i) set.insert(seq.next());
  EXPECT_EQ(set.size(), 64u);
}

TEST(TimeTest, DurationArithmetic) {
  EXPECT_EQ(Duration::millis(3).count_nanos(), 3'000'000);
  EXPECT_EQ(Duration::seconds(1), Duration::millis(1000));
  EXPECT_EQ(Duration::millis(5) + Duration::millis(7), Duration::millis(12));
  EXPECT_EQ(Duration::millis(5) * 4, Duration::millis(20));
  EXPECT_EQ(Duration::millis(20) / 4, Duration::millis(5));
  EXPECT_LT(Duration::micros(999), Duration::millis(1));
  EXPECT_DOUBLE_EQ(Duration::millis(1500).as_seconds(), 1.5);
}

TEST(TimeTest, SimTimeArithmetic) {
  const SimTime t0 = SimTime::zero();
  const SimTime t1 = t0 + Duration::millis(10);
  EXPECT_EQ((t1 - t0), Duration::millis(10));
  EXPECT_LT(t0, t1);
  EXPECT_LT(t1, SimTime::max());
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng{99};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng{3};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng{11};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng{5};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesProbability) {
  Rng rng{6};
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng{8};
  const Duration mean = Duration::millis(10);
  double total = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const Duration d = rng.exponential(mean);
    EXPECT_GE(d, Duration::zero());
    total += d.as_millis();
  }
  EXPECT_NEAR(total / kSamples, 10.0, 0.5);
}

TEST(RngTest, UniformDurationInBounds) {
  Rng rng{10};
  const Duration lo = Duration::millis(1);
  const Duration hi = Duration::millis(5);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = rng.uniform_duration(lo, hi);
    EXPECT_GE(d, lo);
    EXPECT_LE(d, hi);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng{13};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, PickReturnsMember) {
  Rng rng{14};
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int p = rng.pick(v);
    EXPECT_TRUE(p == 10 || p == 20 || p == 30);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent{42};
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent.next_u64() == child.next_u64());
  EXPECT_LT(same, 3);
}

TEST(HashTest, HashCombineOrderSensitive) {
  const auto h1 = hash_combine(hash_combine(0, 1), 2);
  const auto h2 = hash_combine(hash_combine(0, 2), 1);
  EXPECT_NE(h1, h2);
}

// ---------------------------------------------------------------------------
// Hot-path memory primitives (DESIGN.md decision 13)

TEST(ArenaTest, BumpsWithinOneChunk) {
  Arena arena{1024};
  void* a = arena.allocate(100, alignof(std::max_align_t));
  void* b = arena.allocate(100, alignof(std::max_align_t));
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.bytes_allocated(), 200u);
}

TEST(ArenaTest, RespectsAlignment) {
  Arena arena{1024};
  (void)arena.allocate(1, 1);
  void* p = arena.allocate(8, 16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
}

TEST(ArenaTest, GrowsNewChunkWhenExhausted) {
  Arena arena{256};
  (void)arena.allocate(200, 8);
  (void)arena.allocate(200, 8);  // does not fit the first chunk
  EXPECT_EQ(arena.chunk_count(), 2u);
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedChunk) {
  Arena arena{256};
  void* big = arena.allocate(10'000, 8);
  EXPECT_NE(big, nullptr);
  EXPECT_EQ(arena.chunk_count(), 1u);
  EXPECT_EQ(arena.bytes_allocated(), 10'000u);
}

TEST(ArenaTest, ResetReusesChunks) {
  Arena arena{256};
  (void)arena.allocate(200, 8);
  (void)arena.allocate(200, 8);
  const std::size_t chunks = arena.chunk_count();
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  (void)arena.allocate(200, 8);
  (void)arena.allocate(200, 8);
  EXPECT_EQ(arena.chunk_count(), chunks) << "reset must recycle, not grow";
}

TEST(BlockPoolTest, RecyclesFreedBlocks) {
  void* a = BlockPool::allocate(96);
  BlockPool::deallocate(a, 96);
  void* b = BlockPool::allocate(96);  // same size class (64..128 -> class 1)
  EXPECT_EQ(b, a) << "freed block should come back off the free list";
  BlockPool::deallocate(b, 96);
}

TEST(BlockPoolTest, DistinctClassesDoNotShareBlocks) {
  void* small = BlockPool::allocate(64);
  BlockPool::deallocate(small, 64);
  void* large = BlockPool::allocate(512);
  EXPECT_NE(large, small);
  BlockPool::deallocate(large, 512);
}

TEST(BlockPoolTest, OversizedFallsThroughToOperatorNew) {
  // > kMaxPooled: not pooled, but must still round-trip correctly.
  const std::size_t size = BlockPool::kMaxPooled + 1;
  const std::size_t before = BlockPool::arena_bytes();
  void* p = BlockPool::allocate(size);
  EXPECT_NE(p, nullptr);
  EXPECT_EQ(BlockPool::arena_bytes(), before)
      << "oversized blocks must not consume arena";
  BlockPool::deallocate(p, size);
}

TEST(VectorPoolTest, ReleasedVectorKeepsItsCapacity) {
  std::vector<int> v = VectorPool<int>::acquire();
  v.reserve(100);
  int* data = v.data();
  VectorPool<int>::release(std::move(v));
  std::vector<int> reused = VectorPool<int>::acquire();
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.capacity(), 100u);
  EXPECT_EQ(reused.data(), data);
  VectorPool<int>::release(std::move(reused));
}

TEST(PayloadTest, GetIsTypeChecked) {
  Payload p{std::string{"boxed"}};
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p.get<int>(), nullptr);
  ASSERT_NE(p.get<std::string>(), nullptr);
  EXPECT_EQ(*p.get<std::string>(), "boxed");
}

TEST(PayloadTest, PointerCastMirrorsAnyCast) {
  Payload p{42};
  EXPECT_EQ(*payload_cast<int>(&p), 42);
  EXPECT_EQ(payload_cast<double>(&p), nullptr);
  EXPECT_EQ(payload_cast<int>(static_cast<Payload*>(nullptr)), nullptr);
}

TEST(PayloadTest, RvalueCastUnboxesAndEmpties) {
  Payload p{std::string{"gone"}};
  const std::string out = payload_cast<std::string>(std::move(p));
  EXPECT_EQ(out, "gone");
  EXPECT_FALSE(p.has_value());  // NOLINT(bugprone-use-after-move): specified
}

TEST(PayloadTest, MoveTransfersOwnership) {
  Payload a{std::vector<int>{1, 2, 3}};
  Payload b{std::move(a)};
  EXPECT_FALSE(a.has_value());  // NOLINT(bugprone-use-after-move): specified
  ASSERT_NE(b.get<std::vector<int>>(), nullptr);
  EXPECT_EQ(b.get<std::vector<int>>()->size(), 3u);
  b = Payload{7};  // move-assign destroys the old box
  EXPECT_EQ(*b.get<int>(), 7);
}

TEST(PayloadTest, DistinctTypesWithSameLayoutDoNotAlias) {
  struct A {
    int v;
  };
  struct B {
    int v;
  };
  Payload p{A{1}};
  EXPECT_NE(p.get<A>(), nullptr);
  EXPECT_EQ(p.get<B>(), nullptr) << "tag identity must be per-type";
}

TEST(InlineFuncTest, HeapFallbackForOversizedCaptures) {
  // Captures larger than kCapacity must still work (heap fallback), and the
  // callable must survive moves of the wrapper.
  struct Big {
    unsigned char bytes[InlineFunc::kCapacity + 64] = {};
  };
  Big big;
  big.bytes[0] = 42;
  int calls = 0;
  InlineFunc fn{[big, &calls] { calls += big.bytes[0]; }};
  InlineFunc moved{std::move(fn)};
  moved();
  EXPECT_EQ(calls, 42);
}

TEST(InlineFuncTest, MoveAssignReplacesCallable) {
  int which = 0;
  InlineFunc a{[&which] { which = 1; }};
  InlineFunc b{[&which] { which = 2; }};
  a = std::move(b);
  a();
  EXPECT_EQ(which, 2);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace weakset
