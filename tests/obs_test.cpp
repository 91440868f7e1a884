// Unit tests for the simulated-time observability layer (src/obs): histogram
// bucket arithmetic and percentile math, counter/histogram merge across
// registries, span nesting and the retention cap, and the determinism
// guarantee that same recordings produce byte-identical JSON exports.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace weakset::obs {
namespace {

// -- histogram bucket arithmetic ---------------------------------------------

TEST(HistogramBuckets, SmallValuesGetExactBuckets) {
  for (std::int64_t v = 0; v < 16; ++v) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_EQ(Histogram::bucket_lower(i), v) << "value " << v;
    EXPECT_EQ(Histogram::bucket_upper(i), v) << "value " << v;
  }
}

TEST(HistogramBuckets, EveryValueFallsInsideItsBucket) {
  const std::vector<std::int64_t> probes = {16,
                                            17,
                                            31,
                                            32,
                                            33,
                                            255,
                                            256,
                                            257,
                                            1000,
                                            1023,
                                            1024,
                                            1025,
                                            4095,
                                            4096,
                                            1 << 20,
                                            (1 << 20) + 7,
                                            std::int64_t{1} << 40,
                                            (std::int64_t{1} << 40) + 12345};
  for (const std::int64_t v : probes) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_lower(i), v) << "value " << v;
    EXPECT_GE(Histogram::bucket_upper(i), v) << "value " << v;
  }
}

TEST(HistogramBuckets, BucketsTileTheLineWithoutGaps) {
  for (std::size_t i = 0; i < 400; ++i) {
    EXPECT_EQ(Histogram::bucket_upper(i) + 1, Histogram::bucket_lower(i + 1))
        << "bucket " << i;
    // The bucket's own bounds round-trip through bucket_index.
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(i)), i);
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(i)), i);
  }
}

TEST(HistogramBuckets, RelativeErrorIsBoundedBySubBucketWidth) {
  // Above the exact range, bucket width / lower bound <= 1/16.
  for (std::int64_t v = 16; v < (1 << 20); v = v * 3 + 1) {
    const std::size_t i = Histogram::bucket_index(v);
    const double width = static_cast<double>(Histogram::bucket_upper(i) -
                                             Histogram::bucket_lower(i) + 1);
    EXPECT_LE(width / static_cast<double>(Histogram::bucket_lower(i)),
              1.0 / 16.0 + 1e-12)
        << "value " << v;
  }
}

// -- percentile math ---------------------------------------------------------

TEST(HistogramPercentiles, ExactForSmallValues) {
  Histogram h;
  for (std::int64_t v = 1; v <= 10; ++v) h.record(v);  // 1..10, exact buckets
  EXPECT_EQ(h.percentile(0.0), 1);   // rank clamps to the first recording
  EXPECT_EQ(h.percentile(0.1), 1);
  EXPECT_EQ(h.percentile(0.5), 5);
  EXPECT_EQ(h.percentile(0.95), 10);
  EXPECT_EQ(h.percentile(1.0), 10);
}

TEST(HistogramPercentiles, EmptyHistogramReportsZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramPercentiles, QuantisationErrorStaysWithinBucketBound) {
  Histogram h;
  for (std::int64_t v = 1; v <= 10'000; ++v) h.record(v * 1000);
  for (const double q : {0.5, 0.9, 0.95, 0.99}) {
    const double exact =
        std::ceil(q * 10'000) * 1000.0;  // the true rank value
    const double got = static_cast<double>(h.percentile(q));
    EXPECT_GE(got, exact - 1) << "q " << q;           // never understates...
    EXPECT_LE(got, exact * (1.0 + 1.0 / 16.0)) << "q " << q;  // ...by design
  }
  // The top percentile clamps to the exact maximum, not a bucket bound.
  EXPECT_EQ(h.percentile(1.0), 10'000 * 1000);
}

TEST(HistogramPercentiles, NegativeValuesClampToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.percentile(1.0), 0);
}

// -- merge -------------------------------------------------------------------

TEST(RegistryMerge, CountersAddAcrossRegistries) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.add("shared", 3);
  a.add("only_a");
  b.add("shared", 4);
  b.add("only_b", 2);
  a.merge(b);
  EXPECT_EQ(a.counter("shared"), 7u);
  EXPECT_EQ(a.counter("only_a"), 1u);
  EXPECT_EQ(a.counter("only_b"), 2u);
  // The source registry is unchanged.
  EXPECT_EQ(b.counter("shared"), 4u);
  EXPECT_EQ(b.counter("only_a"), 0u);
}

TEST(RegistryMerge, HistogramsMergeExactly) {
  MetricsRegistry a;
  MetricsRegistry b;
  Histogram reference;
  Rng rng{42};
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::int64_t>(rng.uniform(1'000'000));
    (i % 2 == 0 ? a : b).record_value("lat_ns", v);
    reference.record(v);
  }
  a.merge(b);
  const Histogram* merged = a.histogram("lat_ns");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count(), reference.count());
  EXPECT_EQ(merged->sum(), reference.sum());
  EXPECT_EQ(merged->min(), reference.min());
  EXPECT_EQ(merged->max(), reference.max());
  EXPECT_EQ(merged->nonzero_buckets(), reference.nonzero_buckets());
}

TEST(RegistryMerge, BlockEngineMetricsMergeAndExportDeterministically) {
  // The block storage engine's telemetry (DESIGN.md decision 17): counters
  // for the cache/checkpoint/compaction paths plus a free-list-length
  // histogram sampled at every publish. Per-node registries merge into the
  // repo-wide rollup exactly like any other store metric, and the export
  // stays byte-identical run to run.
  const char* kCounters[] = {
      "store.block.cache_hits",          "store.block.cache_misses",
      "store.block.evictions",           "store.block.dirty_writebacks",
      "store.block.checkpoint_blocks_written",
      "store.block.compaction_moves",    "store.block.recovery_read_bytes"};
  const auto run_once = [&kCounters]() {
    MetricsRegistry node0;
    MetricsRegistry node1;
    Rng rng{99};
    for (int i = 0; i < 100; ++i) {
      MetricsRegistry& r = i % 2 == 0 ? node0 : node1;
      for (const char* name : kCounters) r.add(name, rng.uniform(16));
      r.record_value("store.block.free_list_len",
                     static_cast<std::int64_t>(rng.uniform(512)));
    }
    node0.merge(node1);
    return node0.to_json();
  };
  const std::string merged = run_once();
  EXPECT_EQ(merged, run_once());
  for (const char* name : kCounters) {
    EXPECT_NE(merged.find(name), std::string::npos) << name;
  }
  EXPECT_NE(merged.find("store.block.free_list_len"), std::string::npos);

  // Counter sums add across nodes.
  MetricsRegistry a;
  MetricsRegistry b;
  a.add("store.block.cache_hits", 5);
  b.add("store.block.cache_hits", 7);
  b.record_value("store.block.free_list_len", 42);
  a.merge(b);
  EXPECT_EQ(a.counter("store.block.cache_hits"), 12u);
  const Histogram* fl = a.histogram("store.block.free_list_len");
  ASSERT_NE(fl, nullptr);
  EXPECT_EQ(fl->count(), 1u);
}

// -- spans -------------------------------------------------------------------

TEST(Spans, NestingRecordsParentIds) {
  MetricsRegistry r;
  const std::uint64_t call = r.begin_span("coll.snapshot", "server0",
                                          SimTime{1000});
  const std::uint64_t serve =
      r.begin_span("coll.snapshot#serve", "client", SimTime{1500}, call);
  r.end_span(serve, SimTime{2000}, "ok");
  r.end_span(call, SimTime{2500}, "ok");

  ASSERT_EQ(r.retained_spans().size(), 2u);
  // Completion order: the child ends first.
  const Span& child = r.retained_spans()[0];
  const Span& parent = r.retained_spans()[1];
  EXPECT_EQ(child.parent, call);
  EXPECT_EQ(parent.parent, 0u);
  EXPECT_EQ(child.op, "coll.snapshot#serve");
  EXPECT_EQ(child.peer, "client");
  EXPECT_EQ(child.start, SimTime{1500});
  EXPECT_EQ(child.end, SimTime{2000});
  EXPECT_EQ(parent.outcome, "ok");
  EXPECT_EQ(r.spans_started(), 2u);
  EXPECT_EQ(r.spans_finished(), 2u);
  EXPECT_EQ(r.spans_dropped(), 0u);
}

TEST(Spans, RetentionCapDropsLateSpansButKeepsCounting) {
  MetricsRegistry r;
  r.set_span_cap(2);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(r.begin_span("op" + std::to_string(i), "peer",
                               SimTime{i * 10}));
  }
  for (int i = 0; i < 5; ++i) {
    r.end_span(ids[static_cast<std::size_t>(i)], SimTime{i * 10 + 5}, "ok");
  }
  EXPECT_EQ(r.retained_spans().size(), 2u);
  EXPECT_EQ(r.spans_started(), 5u);
  EXPECT_EQ(r.spans_finished(), 5u);
  EXPECT_EQ(r.spans_dropped(), 3u);
  // Ids keep allocating past the cap: capping never perturbs determinism.
  EXPECT_EQ(ids.back(), 5u);
}

TEST(Spans, CapFilledWhileSpansAreOpen) {
  MetricsRegistry r;
  r.set_span_cap(2);
  // Opened while the log has room; closed after it filled.
  const std::uint64_t early_a = r.begin_span("early", "p", SimTime{1});
  const std::uint64_t early_b = r.begin_span("early", "p", SimTime{2});
  const std::uint64_t first = r.begin_span("first", "p", SimTime{3});
  const std::uint64_t second = r.begin_span("second", "p", SimTime{4});
  r.end_span(first, SimTime{5}, "ok");
  r.end_span(second, SimTime{6}, "ok");
  // The log is full: these open without their names and are never kept.
  const std::uint64_t late = r.begin_span("late", "p", SimTime{7});
  r.end_span(early_a, SimTime{8}, "ok");
  r.end_span(late, SimTime{9}, "failed");
  r.end_span(early_b, SimTime{10}, "timeout");
  // Unknown and twice-closed ids are ignored.
  r.end_span(999, SimTime{11}, "ok");
  r.end_span(first, SimTime{12}, "ok");
  r.end_span(late, SimTime{13}, "ok");

  ASSERT_EQ(r.retained_spans().size(), 2u);
  EXPECT_EQ(r.retained_spans()[0].op, "first");
  EXPECT_EQ(r.retained_spans()[0].end, SimTime{5});
  EXPECT_EQ(r.retained_spans()[1].op, "second");
  EXPECT_EQ(r.spans_started(), 5u);
  EXPECT_EQ(r.spans_finished(), 5u);
  EXPECT_EQ(r.spans_dropped(), 3u);
  EXPECT_EQ(late, 5u);

  // Raising the cap does not revive a span opened while the log was full;
  // one opened after the raise is kept.
  const std::uint64_t before_raise =
      r.begin_span("before_raise", "p", SimTime{14});
  r.set_span_cap(3);
  const std::uint64_t after_raise =
      r.begin_span("after_raise", "p", SimTime{15});
  r.end_span(before_raise, SimTime{16}, "ok");
  r.end_span(after_raise, SimTime{17}, "ok");
  ASSERT_EQ(r.retained_spans().size(), 3u);
  EXPECT_EQ(r.retained_spans()[2].op, "after_raise");
  EXPECT_EQ(r.spans_dropped(), 4u);

  // Recycled span storage keeps ids, names and order exact after clear().
  r.clear();
  const std::uint64_t again = r.begin_span("again", "q", SimTime{20});
  r.end_span(again, SimTime{21}, "ok");
  ASSERT_EQ(r.retained_spans().size(), 1u);
  EXPECT_EQ(again, 1u);
  EXPECT_EQ(r.retained_spans()[0].op, "again");
  EXPECT_EQ(r.retained_spans()[0].peer, "q");
  EXPECT_EQ(r.retained_spans()[0].outcome, "ok");
}

// -- export determinism ------------------------------------------------------

/// Feeds one seeded workload into a registry (counters, histograms, spans —
/// everything the export covers).
void record_workload(MetricsRegistry& r, std::uint64_t seed) {
  Rng rng{seed};
  for (int i = 0; i < 200; ++i) {
    r.add("events");
    r.add("batch", rng.uniform(4));
    r.record_value("lat_ns", static_cast<std::int64_t>(rng.uniform(1 << 20)));
    if (i % 3 == 0) {
      const auto id = r.begin_span("op", "peer" + std::to_string(i % 4),
                                   SimTime{static_cast<std::int64_t>(i)});
      r.end_span(id, SimTime{static_cast<std::int64_t>(i + 1)},
                 rng.bernoulli(0.1) ? "failed" : "ok");
    }
  }
}

/// record_workload() recorded through interned ids instead of names.
void record_workload_by_id(MetricsRegistry& r, std::uint64_t seed) {
  const CounterId events{"events"};
  const CounterId batch{"batch"};
  const HistogramId lat_ns{"lat_ns"};
  Rng rng{seed};
  for (int i = 0; i < 200; ++i) {
    r.add(events);
    r.add(batch, rng.uniform(4));
    r.record_value(lat_ns, static_cast<std::int64_t>(rng.uniform(1 << 20)));
    if (i % 3 == 0) {
      const auto id = r.begin_span("op", "peer" + std::to_string(i % 4),
                                   SimTime{static_cast<std::int64_t>(i)});
      r.end_span(id, SimTime{static_cast<std::int64_t>(i + 1)},
                 rng.bernoulli(0.1) ? "failed" : "ok");
    }
  }
}

TEST(Export, SameSeedProducesByteIdenticalJson) {
  MetricsRegistry a;
  MetricsRegistry b;
  record_workload(a, 7);
  record_workload(b, 7);
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(Export, DifferentSeedsProduceDifferentJson) {
  MetricsRegistry a;
  MetricsRegistry b;
  record_workload(a, 7);
  record_workload(b, 8);
  EXPECT_NE(a.to_json(), b.to_json());
}

TEST(Export, ClearResetsEverything) {
  MetricsRegistry r;
  record_workload(r, 7);
  r.clear();
  const MetricsRegistry empty;
  EXPECT_EQ(r.to_json(), empty.to_json());
}

// -- interned ids ------------------------------------------------------------

TEST(InternedIds, RecordingByIdOrByNameExportsTheSameBytes) {
  MetricsRegistry by_name;
  MetricsRegistry by_id;
  record_workload(by_name, 7);
  record_workload_by_id(by_id, 7);
  EXPECT_EQ(by_id.to_json(), by_name.to_json());
  EXPECT_EQ(by_id.counter("events"), 200u);
  EXPECT_EQ(by_id.counter(CounterId{"events"}), 200u);
  EXPECT_EQ(by_id.histogram("lat_ns"), by_id.histogram(HistogramId{"lat_ns"}));
}

TEST(InternedIds, OneNameOneId) {
  EXPECT_EQ(CounterId{"ids.same"}.index(), CounterId{"ids.same"}.index());
  EXPECT_NE(CounterId{"ids.same"}.index(), CounterId{"ids.other"}.index());
  EXPECT_EQ(HistogramId{"ids.same"}.index(), HistogramId{"ids.same"}.index());
}

TEST(InternedIds, UntouchedIdIsAbsentButZeroAddIsExported) {
  MetricsRegistry r;
  const CounterId never{"ids.never_recorded"};
  const HistogramId never_hist{"ids.never_recorded_ns"};
  const CounterId zero{"ids.zero"};
  r.add(zero, 0);
  r.add("ids.zero_by_name", 0);
  const std::string json = r.to_json();
  EXPECT_EQ(json.find("ids.never_recorded"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ids.zero\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ids.zero_by_name\": 0"), std::string::npos) << json;
  EXPECT_EQ(r.counter(never), 0u);
  EXPECT_EQ(r.histogram(never_hist), nullptr);
  EXPECT_EQ(r.histogram("ids.never_recorded_ns"), nullptr);
  EXPECT_EQ(r.counter("ids.name_never_interned"), 0u);
  EXPECT_EQ(r.histogram("ids.name_never_interned"), nullptr);
}

TEST(InternedIds, IdsStayValidAcrossClear) {
  MetricsRegistry r;
  const CounterId events{"events"};
  const HistogramId lat_ns{"lat_ns"};
  record_workload_by_id(r, 7);
  r.clear();
  EXPECT_EQ(r.to_json(), MetricsRegistry{}.to_json());
  EXPECT_EQ(r.counter(events), 0u);
  EXPECT_EQ(r.histogram(lat_ns), nullptr);
  // The same ids record into the cleared registry exactly as into a new one.
  record_workload_by_id(r, 8);
  MetricsRegistry fresh;
  record_workload(fresh, 8);
  EXPECT_EQ(r.to_json(), fresh.to_json());
  r.add(events, 5);
  EXPECT_EQ(r.counter(events), 205u);
}

TEST(InternedIds, MergingIdRecordedRegistriesEqualsMergingNameRecorded) {
  MetricsRegistry by_name;
  MetricsRegistry by_id;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    MetricsRegistry part_name;
    MetricsRegistry part_id;
    record_workload(part_name, seed);
    record_workload_by_id(part_id, seed);
    part_name.add("only_in_part" + std::to_string(seed), seed);
    part_id.add(CounterId{"only_in_part" + std::to_string(seed)}, seed);
    by_name.merge(part_name);
    by_id.merge(part_id);
  }
  EXPECT_EQ(by_id.to_json(), by_name.to_json());
  EXPECT_EQ(by_id.counter("events"), 600u);
  EXPECT_EQ(by_id.counter("only_in_part2"), 2u);
}

TEST(Export, JsonContainsPercentilesAndBuckets) {
  MetricsRegistry r;
  r.add("rpc.calls", 3);
  r.record_value("rpc.lat_ns", 100);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"rpc.calls\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos) << json;
}

}  // namespace
}  // namespace weakset::obs
