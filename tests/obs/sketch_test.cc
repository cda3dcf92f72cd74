// Sketch layer: count-min overestimate-only + conservative update, HLL
// error bounds, space-saving admission/eviction, and the merge algebra the
// fleet roll-up depends on (commutativity, node-then-fleet == direct where
// the structure guarantees it).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/sketch/count_min.h"
#include "src/obs/sketch/hyperloglog.h"
#include "src/obs/sketch/space_saving.h"

namespace taichi::obs {
namespace {

using sketch::CountMinConfig;
using sketch::CountMinSketch;
using sketch::HyperLogLog;
using sketch::HyperLogLogConfig;
using sketch::SpaceSaving;
using sketch::SpaceSavingConfig;

FlowKey Key(uint32_t i) {
  FlowKey k;
  k.src_ip = 0x0a000000u | (i & 0xffffffu);
  k.dst_ip = 0x0a800001u;
  k.src_port = static_cast<uint16_t>(1024 + i % 60000);
  k.dst_port = 443;
  k.proto = kProtoTcp;
  return k;
}

// --- Count-min -----------------------------------------------------------

TEST(CountMin, ExactWhenSparse) {
  CountMinSketch cms(CountMinConfig{});
  for (uint32_t i = 0; i < 100; ++i) {
    for (uint32_t r = 0; r <= i % 3; ++r) {
      cms.Update(Key(i), 100 + i);
    }
  }
  for (uint32_t i = 0; i < 100; ++i) {
    const auto est = cms.Query(Key(i));
    EXPECT_EQ(est.packets, i % 3 + 1) << i;
    EXPECT_EQ(est.bytes, static_cast<uint64_t>(i % 3 + 1) * (100 + i)) << i;
  }
  EXPECT_EQ(cms.total_packets(), 199u);  // 34*1 + 33*2 + 33*3.
}

TEST(CountMin, OverestimateOnlyUnderHeavyCollisions) {
  // Adversarial regime: far more keys than counters, so every cell is
  // polluted. The estimate must still never fall below the truth.
  CountMinConfig cfg;
  cfg.width = 64;
  cfg.depth = 2;
  CountMinSketch cms(cfg);
  constexpr uint32_t kKeys = 20000;
  for (uint32_t i = 0; i < kKeys; ++i) {
    cms.Update(Key(i), 64);
  }
  for (uint32_t i = 0; i < 500; ++i) {
    const auto est = cms.Query(Key(i));
    EXPECT_GE(est.packets, 1u) << i;
    EXPECT_GE(est.bytes, 64u) << i;
  }
  EXPECT_EQ(cms.total_packets(), kKeys);
  EXPECT_EQ(cms.total_bytes(), uint64_t{kKeys} * 64);
}

TEST(CountMin, SameSeedSameStreamIsByteIdentical) {
  CountMinSketch a((CountMinConfig{})), b((CountMinConfig{}));
  for (uint32_t i = 0; i < 5000; ++i) {
    a.Update(Key(i % 700), 64 + i % 9);
    b.Update(Key(i % 700), 64 + i % 9);
  }
  EXPECT_EQ(a.ToJson(), b.ToJson());
  for (uint32_t i = 0; i < 700; ++i) {
    EXPECT_EQ(a.Query(Key(i)).bytes, b.Query(Key(i)).bytes);
  }
}

TEST(CountMin, MergeCommutesAndUpperBoundsTruth) {
  // Conservative update is stream-order dependent, so a merge of shards is
  // not cell-comparable to one sketch that saw everything (shard cells can
  // be tighter) — but cell-wise addition must commute exactly, and both the
  // merged and the direct sketch must stay upper bounds of the truth.
  CountMinConfig cfg;
  cfg.width = 256;
  cfg.depth = 4;
  CountMinSketch a(cfg), b(cfg), direct(cfg);
  uint64_t truth[900] = {};
  for (uint32_t i = 0; i < 4000; ++i) {
    const uint32_t key = i % 900;
    truth[key] += 80;
    (key < 450 ? a : b).Update(Key(key), 80);
    direct.Update(Key(key), 80);
  }
  CountMinSketch ab = a, ba = b;
  ASSERT_TRUE(ab.Merge(b));
  ASSERT_TRUE(ba.Merge(a));
  EXPECT_EQ(ab.ToJson(), ba.ToJson());
  for (uint32_t key = 0; key < 900; ++key) {
    const auto x = ab.Query(Key(key));
    EXPECT_EQ(x.bytes, ba.Query(Key(key)).bytes) << key;
    EXPECT_GE(x.bytes, truth[key]) << key;
    EXPECT_GE(direct.Query(Key(key)).bytes, truth[key]) << key;
  }
  EXPECT_EQ(ab.total_packets(), direct.total_packets());
  EXPECT_EQ(ab.total_bytes(), direct.total_bytes());
}

TEST(CountMin, MergeRefusesIncompatibleShapes) {
  CountMinConfig narrow;
  narrow.width = 128;
  CountMinSketch a((CountMinConfig{})), b(narrow);
  a.Update(Key(1), 64);
  const std::string before = a.ToJson();
  EXPECT_FALSE(a.Merge(b));
  EXPECT_EQ(a.ToJson(), before);
}

// --- HyperLogLog ---------------------------------------------------------

TEST(Hll, ErrorBoundHoldsAtScale) {
  HyperLogLog hll(HyperLogLogConfig{});
  constexpr uint32_t kDistinct = 100000;
  for (uint32_t i = 0; i < kDistinct; ++i) {
    hll.Observe(Key(i));
  }
  const double est = hll.Estimate();
  // 3 sigma of the 1.04/sqrt(m) standard error.
  const double tolerance = 3.0 * hll.ErrorBound() * kDistinct;
  EXPECT_NEAR(est, kDistinct, tolerance);
}

TEST(Hll, SmallRangeUsesLinearCounting) {
  HyperLogLog hll(HyperLogLogConfig{});
  for (uint32_t i = 0; i < 100; ++i) {
    hll.Observe(Key(i));
  }
  EXPECT_NEAR(hll.Estimate(), 100.0, 5.0);
}

TEST(Hll, ReobservationIsNoOp) {
  HyperLogLog hll(HyperLogLogConfig{});
  for (int rep = 0; rep < 1000; ++rep) {
    hll.Observe(Key(7));
  }
  EXPECT_NEAR(hll.Estimate(), 1.0, 0.5);
}

TEST(Hll, NodeThenFleetMergeEqualsDirect) {
  // Register-wise max makes the merge *exactly* what a single estimator
  // would have built — the strongest form of the roll-up contract.
  HyperLogLog a((HyperLogLogConfig{})), b((HyperLogLogConfig{})),
      direct((HyperLogLogConfig{}));
  for (uint32_t i = 0; i < 30000; ++i) {
    (i % 2 ? a : b).Observe(Key(i % 20000));  // Shards overlap on purpose.
    direct.Observe(Key(i % 20000));
  }
  HyperLogLog ab = a, ba = b;
  ASSERT_TRUE(ab.Merge(b));
  ASSERT_TRUE(ba.Merge(a));
  EXPECT_EQ(ab.ToJson(), direct.ToJson());
  EXPECT_EQ(ba.ToJson(), direct.ToJson());
  EXPECT_DOUBLE_EQ(ab.Estimate(), direct.Estimate());
}

TEST(Hll, MergeRefusesIncompatiblePrecision) {
  HyperLogLogConfig small;
  small.precision = 8;
  HyperLogLog a((HyperLogLogConfig{})), b(small);
  EXPECT_FALSE(a.Merge(b));
}

// --- Space-saving --------------------------------------------------------

// Feeds one packet with a perfect estimate (est == running true count), the
// regime the admission filter sees when the CMS is uncollided.
void FeedExact(SpaceSaving& ss, const FlowKey& key, uint32_t bytes,
               uint64_t true_bytes, uint64_t true_packets) {
  ss.Update(key, bytes, true_bytes, true_packets);
}

TEST(SpaceSaving, ExactUnderCapacity) {
  SpaceSaving ss(SpaceSavingConfig{});
  for (uint32_t i = 0; i < 10; ++i) {
    uint64_t bytes = 0;
    for (uint32_t p = 0; p < (i + 1) * 3; ++p) {
      bytes += 100;
      FeedExact(ss, Key(i), 100, bytes, p + 1);
    }
  }
  EXPECT_EQ(ss.tracked(), 10u);
  EXPECT_EQ(ss.evictions(), 0u);
  const auto top = ss.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, Key(9));
  EXPECT_EQ(top[0].bytes, 3000u);
  EXPECT_EQ(top[0].packets, 30u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, Key(8));
  EXPECT_EQ(top[2].key, Key(7));
}

TEST(SpaceSaving, ColdFlowsBounceOffFullTable) {
  SpaceSavingConfig cfg;
  cfg.capacity = 4;
  SpaceSaving ss(cfg);
  for (uint32_t i = 0; i < 4; ++i) {
    FeedExact(ss, Key(i), 1000, 1000, 1);
  }
  // A mouse flow whose estimate does not beat the minimum: no churn.
  FeedExact(ss, Key(100), 64, 64, 1);
  EXPECT_EQ(ss.tracked(), 4u);
  EXPECT_EQ(ss.evictions(), 0u);
  const auto top = ss.TopK(4);
  for (const auto& e : top) {
    EXPECT_NE(e.key, Key(100));
  }
  // An elephant with sketch evidence displaces the minimum, once.
  FeedExact(ss, Key(200), 500, 5000, 10);
  EXPECT_EQ(ss.evictions(), 1u);
  EXPECT_EQ(ss.TopK(1)[0].key, Key(200));
  EXPECT_EQ(ss.TopK(1)[0].bytes, 5000u);
  // Admission overcount is recorded: true count is within [bytes-error, bytes].
  EXPECT_EQ(ss.TopK(1)[0].error, 5000u - 500u);
}

TEST(SpaceSaving, MergeIsLosslessAndCommutativeWithoutEvictions) {
  SpaceSavingConfig cfg;
  cfg.capacity = 32;
  SpaceSaving a(cfg), b(cfg), direct(cfg);
  for (uint32_t i = 0; i < 8; ++i) {
    FeedExact(a, Key(i), 100 * (i + 1), 100 * (i + 1), 1);
    FeedExact(direct, Key(i), 100 * (i + 1), 100 * (i + 1), 1);
  }
  for (uint32_t i = 4; i < 12; ++i) {  // Overlaps keys 4..7 with a.
    FeedExact(b, Key(i), 50 * (i + 1), 50 * (i + 1), 1);
  }
  SpaceSaving ab = a, ba = b;
  ASSERT_TRUE(ab.Merge(b));
  ASSERT_TRUE(ba.Merge(a));
  const auto top_ab = ab.TopK(32), top_ba = ba.TopK(32);
  ASSERT_EQ(top_ab.size(), 12u);
  ASSERT_EQ(top_ba.size(), 12u);
  for (size_t i = 0; i < top_ab.size(); ++i) {
    EXPECT_EQ(top_ab[i].key, top_ba[i].key) << i;
    EXPECT_EQ(top_ab[i].bytes, top_ba[i].bytes) << i;
    EXPECT_EQ(top_ab[i].packets, top_ba[i].packets) << i;
  }
  // Shared keys sum: key 4 saw 500 in a and 250 in b.
  for (const auto& e : top_ab) {
    if (e.key == Key(4)) {
      EXPECT_EQ(e.bytes, 500u + 250u);
      EXPECT_EQ(e.packets, 2u);
    }
  }
  EXPECT_EQ(ab.evictions(), 0u);
}

TEST(SpaceSaving, MergeTruncatesToCapacityKeepingHeaviest) {
  SpaceSavingConfig cfg;
  cfg.capacity = 4;
  SpaceSaving a(cfg), b(cfg);
  for (uint32_t i = 0; i < 4; ++i) {
    FeedExact(a, Key(i), 1000 + i, 1000 + i, 1);
    FeedExact(b, Key(100 + i), 10 + i, 10 + i, 1);
  }
  ASSERT_TRUE(a.Merge(b));
  EXPECT_EQ(a.tracked(), 4u);
  EXPECT_GE(a.evictions(), 4u);  // The four light keys fell off.
  for (const auto& e : a.TopK(4)) {
    EXPECT_GE(e.bytes, 1000u);
  }
}

TEST(SpaceSaving, MergeRefusesIncompatibleCapacity) {
  SpaceSavingConfig big;
  big.capacity = 128;
  SpaceSaving a(SpaceSavingConfig{}), b(big);
  EXPECT_FALSE(a.Merge(b));
}

TEST(SpaceSaving, HeavyChurnKeepsIndexConsistent) {
  // Exercises eviction + backward-shift deletion under sustained churn with
  // rising estimates, then checks every surviving entry is still findable
  // (an update lands on it, not on a duplicate).
  SpaceSavingConfig cfg;
  cfg.capacity = 8;
  SpaceSaving ss(cfg);
  for (uint32_t round = 1; round <= 50; ++round) {
    for (uint32_t i = 0; i < 20; ++i) {
      const FlowKey k = Key(i);
      FeedExact(ss, k, 10, uint64_t{10} * round * (i + 1), round);
    }
  }
  EXPECT_EQ(ss.tracked(), 8u);
  const auto before = ss.TopK(8);
  // Updating an existing entry must mutate it in place.
  FeedExact(ss, before[0].key, 5, before[0].bytes + 5, before[0].packets + 1);
  const auto after = ss.TopK(8);
  EXPECT_EQ(after[0].key, before[0].key);
  EXPECT_EQ(after[0].bytes, before[0].bytes + 5);
  EXPECT_EQ(ss.tracked(), 8u);
}

}  // namespace
}  // namespace taichi::obs
