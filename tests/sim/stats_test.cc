#include "src/sim/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/sim/random.h"

#ifndef TAICHI_TESTDATA_DIR
#define TAICHI_TESTDATA_DIR "tests/sim/testdata"
#endif

namespace taichi::sim {
namespace {

// Summary's bound, with room for the last-bit rounding of the interpolation.
constexpr double kBound = Summary::kRelativeError * (1 + 1e-12);

Summary SummaryOf(const std::vector<double>& samples) {
  Summary s;
  for (double v : samples) {
    s.Add(v);
  }
  return s;
}

// Percentile(p)'s rule applied to the exact order statistics.
double ExactPercentile(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

// p0, p0.1, ..., p100 of `s` are each within the bound of the exact value
// over `samples`.
void ExpectPercentilesWithinBound(const Summary& s, std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  for (int tenths = 0; tenths <= 1000; ++tenths) {
    const double p = tenths / 10.0;
    const double exact = ExactPercentile(samples, p);
    EXPECT_LE(std::abs(s.Percentile(p) - exact), kBound * exact) << "p" << p;
  }
}

// Queue delays recorded from a small Testbed, zeros included.
std::vector<double> RecordedQueueDelaysUs() {
  std::ifstream in(std::string(TAICHI_TESTDATA_DIR) + "/queue_delay_ns.txt");
  std::vector<double> out;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') {
      out.push_back(ToMicros(std::stoll(line)));
    }
  }
  return out;
}

TEST(SummaryTest, BasicMoments) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(SummaryTest, MdevMatchesPingDefinition) {
  Summary s;
  for (double v : {10.0, 20.0}) {
    s.Add(v);
  }
  // iputils ping: sqrt(sum(x^2)/n - mean^2) = sqrt(250 - 225) = 5.
  EXPECT_DOUBLE_EQ(s.mdev(), 5.0);
}

TEST(SummaryTest, StddevSample) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
}

TEST(SummaryTest, StddevIsStableWhenMeanDwarfsSpread) {
  // Regression: the sum-of-squares formula cancels catastrophically here —
  // with samples 1e9 + {0,1,2}, sum_sq - sum^2/n loses all significant
  // digits in double precision and the old code returned 0 (or garbage).
  // Welford's update keeps the exact answer, stddev({0,1,2}) = 1.
  Summary s;
  for (double v : {1e9, 1e9 + 1.0, 1e9 + 2.0}) {
    s.Add(v);
  }
  EXPECT_NEAR(s.stddev(), 1.0, 1e-6);
  // mdev comes from the same moments: the population stddev, sqrt(2/3).
  EXPECT_NEAR(s.mdev(), std::sqrt(2.0 / 3.0), 1e-6);
}

TEST(SummaryTest, StddevMatchesDirectComputation) {
  Summary s;
  uint64_t seed = 9;
  double direct_sum = 0;
  std::vector<double> vals;
  for (int i = 0; i < 1000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    double v = 50.0 + static_cast<double>(seed % 1000) / 100.0;
    vals.push_back(v);
    direct_sum += v;
    s.Add(v);
  }
  const double mean = direct_sum / static_cast<double>(vals.size());
  double acc = 0;
  for (double v : vals) {
    acc += (v - mean) * (v - mean);
  }
  const double direct = std::sqrt(acc / static_cast<double>(vals.size() - 1));
  EXPECT_NEAR(s.stddev(), direct, 1e-9);
}

TEST(SummaryTest, PercentileExactOrderStatistics) {
  Summary s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  // The extremes are exact; every other order statistic is within the bound.
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, kBound * 50.5);
  EXPECT_NEAR(s.Percentile(99), 99.01, kBound * 99.01);
}

TEST(SummaryTest, PercentileSingleSample) {
  Summary s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99.9), 42.0);
}

TEST(SummaryTest, AddAfterPercentileInvalidatesCache) {
  Summary s;
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 1.0);
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 10.0);
}

TEST(SummaryTest, PercentilesWithinBoundOnSeededStreams) {
  Rng rng(2718);
  std::vector<double> exponential, lognormal, pareto;
  for (int i = 0; i < 100'000; ++i) {
    exponential.push_back(rng.Exponential(20.0));
    lognormal.push_back(rng.LogNormal(50.0, 1.0));
    pareto.push_back(rng.BoundedPareto(1.0, 1e6, 1.2));
  }
  for (const std::vector<double>* stream : {&exponential, &lognormal, &pareto}) {
    ExpectPercentilesWithinBound(SummaryOf(*stream), *stream);
  }
}

TEST(SummaryTest, PercentilesWithinBoundOnRecordedQueueDelays) {
  const std::vector<double> delays = RecordedQueueDelaysUs();
  ASSERT_EQ(delays.size(), 4826u);
  const Summary s = SummaryOf(delays);
  EXPECT_EQ(s.zeros(), static_cast<uint64_t>(std::count(delays.begin(), delays.end(), 0.0)));
  EXPECT_GT(s.zeros(), 0u);
  ExpectPercentilesWithinBound(s, delays);
}

TEST(SummaryTest, MergeEqualsDirectObservationBucketForBucket) {
  const std::vector<double> delays = RecordedQueueDelaysUs();
  Summary parts[3];
  for (size_t i = 0; i < delays.size(); ++i) {
    parts[i * 3 / delays.size()].Add(delays[i]);
  }
  Summary merged;
  merged.Merge(Summary{});  // Empty parts are no-ops on either side.
  for (const Summary& part : parts) {
    merged.Merge(part);
  }
  const Summary direct = SummaryOf(delays);
  EXPECT_EQ(merged.zeros(), direct.zeros());
  EXPECT_EQ(merged.first_bucket(), direct.first_bucket());
  EXPECT_EQ(merged.buckets(), direct.buckets());
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.min(), direct.min());
  EXPECT_EQ(merged.max(), direct.max());
  EXPECT_NEAR(merged.sum(), direct.sum(), 1e-9 * direct.sum());
  EXPECT_NEAR(merged.stddev(), direct.stddev(), 1e-9 * direct.stddev());
  for (double p : {0.0, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(merged.Percentile(p), direct.Percentile(p)) << "p" << p;
  }
}

TEST(SummaryTest, WindowMatchesFreshSummaryOfItsSamples) {
  Rng rng(31);
  std::vector<double> lognormal;
  for (int i = 0; i < 20'000; ++i) {
    lognormal.push_back(rng.LogNormal(50.0, 1.0));
  }
  for (const std::vector<double>& stream : {RecordedQueueDelaysUs(), lognormal}) {
    const size_t cut = stream.size() / 3;
    Summary s;
    for (size_t i = 0; i < cut; ++i) {
      s.Add(stream[i]);
    }
    const Summary earlier = s;
    const std::vector<double> later(stream.begin() + static_cast<ptrdiff_t>(cut), stream.end());
    for (double v : later) {
      s.Add(v);
    }
    const Summary window = s.Since(earlier);
    const Summary fresh = SummaryOf(later);
    EXPECT_EQ(window.count(), fresh.count());
    EXPECT_EQ(window.zeros(), fresh.zeros());
    EXPECT_EQ(window.first_bucket(), fresh.first_bucket());
    EXPECT_EQ(window.buckets(), fresh.buckets());
    EXPECT_NEAR(window.mean(), fresh.mean(), 1e-9 * fresh.mean());
    ExpectPercentilesWithinBound(window, later);
    for (int tenths = 0; tenths <= 1000; ++tenths) {
      const double p = tenths / 10.0;
      EXPECT_LE(std::abs(window.Percentile(p) - fresh.Percentile(p)),
                kBound * fresh.Percentile(p))
          << "p" << p;
    }
  }
}

TEST(SummaryTest, SinceUnrelatedOrEmptyBaselineIsWholeSummary) {
  const Summary s = SummaryOf({1.0, 2.0, 3.0});
  EXPECT_EQ(s.Since(Summary{}), s);
  EXPECT_TRUE(s.Since(s).empty());
  // A baseline with a sample the summary lacks is not an earlier state of
  // it (the summary was replaced): the window starts over.
  EXPECT_EQ(s.Since(SummaryOf({1.0, 50.0})), s);
  EXPECT_EQ(s.Since(SummaryOf({1.0, 2.0, 3.0, 3.0})), s);
}

TEST(SummaryTest, MemoryIsBoundedByValueRangeNotCount) {
  constexpr double kLo = 0.5;
  constexpr double kHi = 3000.0;
  const size_t span = Summary::Bucket(kHi) - Summary::Bucket(kLo) + 1;
  Rng rng(11);
  Summary s;
  for (int i = 0; i < 10'000; ++i) {
    s.Add(rng.Uniform(kLo, kHi));
  }
  EXPECT_LE(s.buckets().size(), span);
  for (int i = 10'000; i < 10'000'000; ++i) {
    s.Add(rng.Uniform(kLo, kHi));
  }
  EXPECT_EQ(s.count(), 10'000'000u);
  EXPECT_LE(s.buckets().size(), span);
}

TEST(SummaryTest, NegativeOrNonFiniteSampleDies) {
  Summary s;
  EXPECT_DEATH(s.Add(-1.0), "finite and >= 0");
  EXPECT_DEATH(s.Add(std::nan("")), "finite and >= 0");
  EXPECT_DEATH(s.Add(std::numeric_limits<double>::infinity()), "finite and >= 0");
}

// Empirical-CDF queries, as fig03 reads them off a Summary.
TEST(CdfBuilderTest, FractionBelow) {
  Summary cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(i);
  }
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(50), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(1000), 1.0);
}

TEST(CdfBuilderTest, FractionBelowIsInclusiveAndHandlesDuplicates) {
  // x == a sample value counts that sample (<=), including all duplicates.
  Summary cdf;
  for (double v : {1.0, 2.0, 2.0, 2.0, 3.0}) {
    cdf.Add(v);
  }
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(2.0), 0.8);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(1.999), 0.2);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(1.0), 0.2);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(3.0), 1.0);
  // Queries interleaved with Adds see the new sample.
  cdf.Add(0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionBelow(0.5), 1.0 / 6.0);
}

TEST(CdfBuilderTest, QuantileInverse) {
  Summary cdf;
  for (int i = 1; i <= 1000; ++i) {
    cdf.Add(i);
  }
  EXPECT_NEAR(cdf.Percentile(99.68), 997.0, 1.5);
}

TEST(CounterTest, IncAndReset) {
  Counter c;
  c.Inc();
  c.Inc(4);
  EXPECT_EQ(c.value(), 5u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

}  // namespace
}  // namespace taichi::sim
