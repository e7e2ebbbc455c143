// MetricsRegistry: handle semantics (idempotent registration, stable
// pointers, value history across re-registration), histogram bucket math,
// exporter shape, and thread-safety of the hot-path increments.
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace sdb {
namespace obs {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramMetricTest, LeBucketSemantics) {
  HistogramMetric h({1.0, 2.0, 4.0});
  h.Observe(0.5);  // <= 1.0 -> bucket 0.
  h.Observe(1.0);  // Boundary counts in its own bucket (le semantics).
  h.Observe(1.5);  // <= 2.0 -> bucket 1.
  h.Observe(4.0);  // <= 4.0 -> bucket 2.
  h.Observe(9.0);  // Above every bound -> overflow bucket.
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

TEST(MetricsRegistryTest, RegistrationIsIdempotentAndHandlesAreStable) {
  MetricsRegistry registry;
  Counter* first = registry.GetCounter("sdb.test.events");
  first->Increment(7);
  // Re-registering the same name returns the same handle, history intact —
  // a subsystem can be torn down and rebuilt without losing its totals.
  Counter* second = registry.GetCounter("sdb.test.events");
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->value(), 7u);

  Gauge* g1 = registry.GetGauge("sdb.test.level");
  g1->Set(1.25);
  EXPECT_EQ(g1, registry.GetGauge("sdb.test.level"));
  EXPECT_DOUBLE_EQ(registry.GetGauge("sdb.test.level")->value(), 1.25);

  HistogramMetric* h1 = registry.GetHistogram("sdb.test.dist", {1.0, 2.0});
  h1->Observe(1.5);
  // Later bounds are ignored: first registration wins.
  HistogramMetric* h2 = registry.GetHistogram("sdb.test.dist", {99.0});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->upper_bounds().size(), 2u);
  EXPECT_EQ(h2->count(), 1u);
}

TEST(MetricsRegistryTest, NamesAreNamespacedPerKind) {
  MetricsRegistry registry;
  registry.GetCounter("sdb.test.x")->Increment();
  registry.GetGauge("sdb.test.x")->Set(5.0);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("sdb.test.x"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sdb.test.x"), 5.0);
}

TEST(MetricsRegistryTest, SnapshotCapturesAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter("sdb.test.c")->Increment(3);
  registry.GetGauge("sdb.test.g")->Set(0.5);
  registry.GetHistogram("sdb.test.h", {10.0})->Observe(4.0);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("sdb.test.c"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sdb.test.g"), 0.5);
  const HistogramSnapshot& h = snap.histograms.at("sdb.test.h");
  EXPECT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.sum, 4.0);
  ASSERT_EQ(h.counts.size(), 2u);  // One bound + overflow.
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 0u);
}

TEST(MetricsRegistryTest, ResetForTestZeroesButKeepsHandles) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("sdb.test.c");
  c->Increment(9);
  registry.GetHistogram("sdb.test.h", {1.0})->Observe(0.5);
  registry.ResetForTest();
  EXPECT_EQ(c->value(), 0u);  // Same handle, zeroed.
  EXPECT_EQ(registry.Snapshot().histograms.at("sdb.test.h").count, 0u);
  c->Increment();  // Handle still live after the reset.
  EXPECT_EQ(registry.Snapshot().counters.at("sdb.test.c"), 1u);
}

TEST(MetricsRegistryTest, JsonExportShape) {
  MetricsRegistry registry;
  registry.GetCounter("sdb.test.c")->Increment(2);
  registry.GetHistogram("sdb.test.h", {1.0, 2.0})->Observe(1.5);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"sdb.test.c\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"upper_bounds\""), std::string::npos) << json;
}

TEST(MetricsRegistryTest, GlobalIsSameInstance) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(MetricsRegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&registry] {
      // Re-registering from every thread exercises the registration mutex
      // against concurrent hot-path increments.
      Counter* c = registry.GetCounter("sdb.test.contended");
      HistogramMetric* h = registry.GetHistogram("sdb.test.contended_h", {0.5});
      for (int n = 0; n < kPerThread; ++n) {
        c->Increment();
        h->Observe(n % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.GetCounter("sdb.test.contended")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot& h = snap.histograms.at("sdb.test.contended_h");
  EXPECT_EQ(h.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.counts[0] + h.counts[1], h.count);
}

TEST(JsonHelpersTest, EscapeAndNumber) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonNumber(2.0), "2");
  // JSON has no NaN/inf; the exporter clamps them.
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "0");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "0");
}

}  // namespace
}  // namespace obs
}  // namespace sdb
