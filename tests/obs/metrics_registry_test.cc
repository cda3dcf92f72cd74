// MetricsRegistry: registration, snapshotting and JSON export.
#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace taichi::obs {
namespace {

TEST(MetricsRegistryTest, SnapshotReflectsLiveMetrics) {
  sim::Counter packets;
  sim::Summary latency;
  double load = 0.25;

  MetricsRegistry registry;
  registry.AddCounter("dp.packets", &packets);
  registry.AddSummary("dp.latency_us", &latency);
  registry.AddGauge("dp.load", [&load] { return load; });
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_TRUE(registry.Has("dp.packets"));
  EXPECT_FALSE(registry.Has("dp.bytes"));

  packets.Inc(7);
  latency.Add(10.0);
  latency.Add(30.0);

  MetricsSnapshot snap = registry.Snapshot(sim::Micros(5));
  EXPECT_EQ(snap.at, sim::Micros(5));
  ASSERT_EQ(snap.samples.size(), 3u);

  const MetricSample* c = snap.Find("dp.packets");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(c->count, 7u);

  const MetricSample* s = snap.Find("dp.latency_us");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricSample::Kind::kSummary);
  EXPECT_EQ(s->count, 2u);
  EXPECT_DOUBLE_EQ(s->min, 10.0);
  EXPECT_DOUBLE_EQ(s->max, 30.0);
  EXPECT_DOUBLE_EQ(s->mean, 20.0);

  const MetricSample* g = snap.Find("dp.load");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind, MetricSample::Kind::kGauge);
  EXPECT_DOUBLE_EQ(g->value, 0.25);

  // The snapshot is a copy: later mutation does not affect it, but a new
  // snapshot sees the fresh values.
  packets.Inc(3);
  EXPECT_EQ(snap.Find("dp.packets")->count, 7u);
  EXPECT_EQ(registry.Snapshot(0).Find("dp.packets")->count, 10u);
}

TEST(MetricsRegistryTest, CounterFn) {
  sim::Counter a, b;
  a.Inc(2);
  b.Inc(5);

  MetricsRegistry registry;
  registry.AddCounterFn("total", [&] { return a.value() + b.value(); });

  MetricsSnapshot snap = registry.Snapshot(0);
  EXPECT_EQ(snap.Find("total")->count, 7u);
  EXPECT_EQ(snap.Find("total")->kind, MetricSample::Kind::kCounter);
}

TEST(MetricsRegistryTest, RemoveAndRemovePrefix) {
  sim::Counter c;
  MetricsRegistry registry;
  registry.AddCounter("a.x", &c);
  registry.AddCounter("a.y", &c);
  registry.AddCounter("b.x", &c);

  registry.Remove("a.x");
  EXPECT_FALSE(registry.Has("a.x"));
  EXPECT_EQ(registry.size(), 2u);

  registry.RemovePrefix("a.");
  EXPECT_FALSE(registry.Has("a.y"));
  EXPECT_TRUE(registry.Has("b.x"));
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, DuplicateRegistrationReplaces) {
  sim::Counter first, second;
  first.Inc(1);
  second.Inc(2);
  MetricsRegistry registry;
  registry.AddCounter("dup", &first);
  registry.AddCounter("dup", &second);  // Logs a TAICHI_ERROR, replaces.
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Snapshot(0).Find("dup")->count, 2u);
}

TEST(MetricsRegistryTest, JsonExportContainsAllMetrics) {
  sim::Counter c;
  c.Inc(42);
  sim::Summary s;
  s.Add(3.5);
  MetricsRegistry registry;
  registry.AddSummary("lat", &s);  // Registered first, exported second.
  registry.AddCounter("kernel.ipis", &c);

  std::string json = registry.Snapshot(sim::Millis(2)).ToJson();
  EXPECT_NE(json.find("\"at_ns\": 2000000"), std::string::npos);
  const size_t ipis = json.find("\"kernel.ipis\"");
  const size_t lat = json.find("\"lat\"");
  ASSERT_NE(ipis, std::string::npos);
  ASSERT_NE(lat, std::string::npos);
  EXPECT_LT(ipis, lat);  // Rows are sorted by name, not registration order.
  EXPECT_NE(json.find("\"kind\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"summary\""), std::string::npos);
  // Balanced braces (cheap structural sanity; full parse happens in the
  // trace test's JSON checker).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(MetricsRegistryTest, WriteFileWritesTheJsonExport) {
  sim::Counter c;
  c.Inc(1);
  MetricsRegistry registry;
  registry.AddCounter("c", &c);
  MetricsSnapshot snap = registry.Snapshot(0);

  std::string json_path = testing::TempDir() + "/metrics_test.json";
  ASSERT_TRUE(snap.WriteFile(json_path));

  std::ifstream jf(json_path);
  std::string json((std::istreambuf_iterator<char>(jf)), std::istreambuf_iterator<char>());
  EXPECT_EQ(json, snap.ToJson());

  std::remove(json_path.c_str());
}

}  // namespace
}  // namespace taichi::obs
