#include "src/dp/sources.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>

#include "src/obs/sketch/sketch_hash.h"
#include "src/sim/packet_pool.h"

namespace taichi::dp {
namespace {

class SourcesTest : public ::testing::Test {
 protected:
  SourcesTest() : accel_(&sim_, {}) {
    accel_.set_pool(&pool_);
    queue_ = accel_.AddQueue(0);
  }

  sim::Simulation sim_;
  sim::PacketPool pool_{8192};
  hw::Accelerator accel_;
  uint32_t queue_ = 0;
};

TEST_F(SourcesTest, PoissonRateConverges) {
  OpenLoopConfig cfg;
  cfg.rate_pps = 100000;
  OpenLoopSource src(&sim_, &accel_, queue_, cfg, 1);
  src.Start();
  sim_.RunFor(sim::Seconds(1));
  EXPECT_NEAR(static_cast<double>(src.injected()), 100000.0, 3000.0);
}

TEST_F(SourcesTest, ConstantRateIsExact) {
  OpenLoopConfig cfg;
  cfg.rate_pps = 10000;
  cfg.process = OpenLoopConfig::Process::kConstant;
  OpenLoopSource src(&sim_, &accel_, queue_, cfg, 1);
  src.Start();
  sim_.RunFor(sim::Seconds(1));
  EXPECT_NEAR(static_cast<double>(src.injected()), 10000.0, 2.0);
}

TEST_F(SourcesTest, MmppAveragesBetweenStates) {
  OpenLoopConfig cfg;
  cfg.rate_pps = 10000;
  cfg.process = OpenLoopConfig::Process::kMmpp;
  cfg.burst_multiplier = 10.0;
  cfg.burst_mean = sim::Millis(5);
  cfg.calm_mean = sim::Millis(5);
  OpenLoopSource src(&sim_, &accel_, queue_, cfg, 1);
  src.Start();
  sim_.RunFor(sim::Seconds(2));
  double rate = static_cast<double>(src.injected()) / 2.0;
  // Expected mean: 50/50 duty between 10k and 100k = 55k pps.
  EXPECT_GT(rate, 35000.0);
  EXPECT_LT(rate, 75000.0);
}

TEST_F(SourcesTest, StopHaltsInjection) {
  OpenLoopConfig cfg;
  cfg.rate_pps = 100000;
  OpenLoopSource src(&sim_, &accel_, queue_, cfg, 1);
  src.Start();
  sim_.RunFor(sim::Millis(100));
  src.Stop();
  uint64_t at_stop = src.injected();
  sim_.RunFor(sim::Millis(100));
  EXPECT_EQ(src.injected(), at_stop);
}

TEST_F(SourcesTest, ZeroRateThenRaiseResumes) {
  // A rate of 0 parks the arrival event at its next firing (a diurnal trough
  // or a shed floor of 0 through Testbed::ScaleBackgroundLoad); raising the
  // rate again must re-arm it.
  OpenLoopConfig cfg;
  cfg.rate_pps = 100000;
  cfg.process = OpenLoopConfig::Process::kConstant;
  OpenLoopSource src(&sim_, &accel_, queue_, cfg, 1);
  src.Start();
  sim_.RunFor(sim::Millis(1));
  EXPECT_EQ(src.injected(), 100u);
  src.set_rate(0);
  sim_.RunFor(sim::Millis(1));
  EXPECT_EQ(src.injected(), 100u);
  EXPECT_TRUE(src.running());
  src.set_rate(100000);
  sim_.RunFor(sim::Millis(10));
  EXPECT_EQ(src.injected(), 1100u);
}

TEST_F(SourcesTest, DeliveryStatsTrackLatency) {
  OpenLoopConfig cfg;
  OpenLoopSource src(&sim_, &accel_, queue_, cfg, 1);
  hw::IoPacket pkt;
  pkt.created = 0;
  sim_.RunFor(sim::Micros(25));
  src.OnDelivered(pkt, sim_.Now());
  EXPECT_EQ(src.delivered(), 1u);
  EXPECT_NEAR(src.latency_us().mean(), 25.0, 0.01);
}

TEST_F(SourcesTest, PacketsCarryConfiguredIdentity) {
  OpenLoopConfig cfg;
  cfg.rate_pps = 1e6;
  cfg.size_bytes = 777;
  cfg.flow = 3;
  cfg.user_tag = 0xabc;
  cfg.kind = hw::IoKind::kNetTx;
  OpenLoopSource src(&sim_, &accel_, queue_, cfg, 1);
  src.Start();
  sim_.RunFor(sim::Millis(1));
  ASSERT_GT(accel_.ring(queue_).size(), 0u);
  std::array<sim::PacketHandle, 1> out;
  ASSERT_EQ(accel_.ring(queue_).PopBurst(1, out.data()), 1u);
  const hw::IoPacket& pkt = pool_.Get(out[0]);
  EXPECT_EQ(pkt.size_bytes, 777u);
  EXPECT_EQ(pkt.flow, 3u);
  EXPECT_EQ(pkt.user_tag, 0xabcu);
  EXPECT_EQ(pkt.kind, hw::IoKind::kNetTx);
}

TEST_F(SourcesTest, SameSeedDeterministic) {
  auto run = [this](uint64_t seed) {
    OpenLoopConfig cfg;
    cfg.rate_pps = 50000;
    sim::Simulation local(seed);
    sim::PacketPool pool(8192);
    hw::Accelerator accel(&local, {});
    accel.set_pool(&pool);
    uint32_t q = accel.AddQueue(0);
    OpenLoopSource src(&local, &accel, q, cfg, seed);
    src.Start();
    local.RunFor(sim::Millis(100));
    return src.injected();
  };
  EXPECT_EQ(run(9), run(9));
}

// ZipfRanks must return exactly the formula's rank: at every step and at
// the edges of the guard band around it, at every bucket edge of the index,
// at both ends of the draw range, and on a long run of real flow-key draws.
TEST(ZipfRanksTest, TableMatchesFormula) {
  constexpr int64_t kTop = (int64_t{1} << 53) - 1;
  constexpr int64_t g = ZipfRanks::kGuard;
  for (double skew : {0.5, 1.1, 1.3, 1.5, 3.0}) {
    for (uint32_t n : {2u, 3u, 125u, 256u, 10000u}) {
      const ZipfRanks table(n, skew);
      uint64_t mismatches = 0;
      auto check = [&](int64_t k) {
        if (k < 0 || k > kTop) {
          return;
        }
        const uint64_t draw = static_cast<uint64_t>(k);
        if (table.Rank(draw) != ZipfRanks::FormulaRank(draw, n, skew)) {
          if (mismatches++ == 0) {
            ADD_FAILURE() << "n " << n << " skew " << skew << " draw " << draw << ": table "
                          << table.Rank(draw) << ", formula "
                          << ZipfRanks::FormulaRank(draw, n, skew);
          }
        }
      };
      check(0);
      check(kTop);
      const double log_n = std::log(static_cast<double>(n));
      for (uint32_t j = 1; j < n; ++j) {
        const int64_t step =
            std::llround(std::ldexp(std::pow(std::log(j + 1.0) / log_n, 1.0 / skew), 53));
        for (int64_t d : {int64_t{0}, int64_t{1}, int64_t{2}, g - 1, g, g + 1}) {
          check(step - d);
          check(step + d);
        }
      }
      for (int64_t b = 0; b <= int64_t{1} << ZipfRanks::kBucketBits; ++b) {
        const int64_t edge = b << (53 - ZipfRanks::kBucketBits);
        check(edge - 1);
        check(edge);
        check(edge + 1);
      }
      EXPECT_EQ(mismatches, 0u) << "n " << n << " skew " << skew;
    }
  }
  // The draws OpenLoopSource makes for 10^7 consecutive packets of source 0.
  const ZipfRanks table(256, 1.3);
  const uint64_t salt = obs::sketch::Mix64(0xf10f5ULL);
  uint64_t mismatches = 0;
  for (uint64_t i = 0; i < 10'000'000; ++i) {
    const uint64_t draw = obs::sketch::Mix64(salt ^ i) >> 11;
    mismatches += table.Rank(draw) != ZipfRanks::FormulaRank(draw, 256, 1.3);
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ZipfRanksTest, SharedTablePerFlowCountAndSkew) {
  const auto a = ZipfRanks::Shared(256, 1.3);
  EXPECT_EQ(ZipfRanks::Shared(256, 1.3), a);
  EXPECT_NE(ZipfRanks::Shared(256, 1.1), a);
  EXPECT_NE(ZipfRanks::Shared(125, 1.3), a);
}

}  // namespace
}  // namespace taichi::dp
