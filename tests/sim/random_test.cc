#include "src/sim/random.h"

#include <gtest/gtest.h>

#include <cmath>

namespace taichi::sim {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = r.UniformInt(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng r(5);
  EXPECT_EQ(r.UniformInt(7, 7), 7u);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng r(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += r.Exponential(50.0);
  }
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(RngTest, NormalMoments) {
  Rng r(13);
  double sum = 0;
  double sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = r.Normal(10.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng r(17);
  for (int i = 0; i < 20000; ++i) {
    double v = r.BoundedPareto(1.0, 67.0, 1.2);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 67.0 + 1e-9);
  }
}

TEST(RngTest, BoundedParetoIsHeavyTailedButMostlySmall) {
  // Matches the Fig. 5 shape requirement: most long routines are short
  // (1-5 ms band) but a tail reaches the upper bound region.
  Rng r(19);
  int small = 0;
  int large = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double v = r.BoundedPareto(1.0, 67.0, 1.6);
    if (v <= 5.0) {
      ++small;
    }
    if (v > 30.0) {
      ++large;
    }
  }
  EXPECT_GT(small, n * 0.85);
  EXPECT_GT(large, 10);
}

TEST(RngTest, BernoulliEdges) {
  Rng r(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(RngTest, ExpDurationNeverZero) {
  Rng r(29);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(r.ExpDuration(3), 1u);
  }
}

TEST(RngTest, LogNormalMeanRoughlyMatches) {
  Rng r(37);
  double sum = 0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) {
    sum += r.LogNormal(20.0, 0.5);
  }
  EXPECT_NEAR(sum / n, 20.0, 0.5);
}

}  // namespace
}  // namespace taichi::sim
