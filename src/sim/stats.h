// Measurement primitives: bounded latency distributions and counters.
#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace taichi::sim {

// A distribution of non-negative samples whose memory is bounded by the
// range of the values, not by how many there are: log-linear buckets in the
// style of HDR Histogram and DDSketch. A sample's bucket is its IEEE-754
// exponent plus the top 7 mantissa bits, so every power of two splits into
// 128 buckets and a positive finite double falls in one of under 2^18.
// Exact zeros (most queue delays on an idle node) have a counter of their
// own, so they do not stretch the bucket range.
//
// count, sum, min, max, mean, stddev and mdev are exact. Percentiles read
// each order statistic as its bucket's midpoint, within kRelativeError of
// the sample. Add is O(1) and allocates only when a sample lands outside the
// bucket range seen so far. Summaries merge by adding buckets, and a later
// state minus an earlier one is the window in between (Since).
class Summary {
 public:
  // Bound on |Percentile(p) - exact| / exact: half a bucket, 2^-8 (0.39 %).
  static constexpr double kRelativeError = 1.0 / 256;

  // The bucket of a positive finite sample; monotone in the sample.
  static uint32_t Bucket(double sample);

  // `sample` must be finite and >= 0. Anything else is a caller bug: it is
  // reported (TAICHI_ERROR), asserted and dropped.
  void Add(double sample);
  // Adds every sample of `other`: buckets add, and the moments combine with
  // Chan et al.'s parallel formula.
  void Merge(const Summary& other);
  // The samples added since `earlier`, a copy of this summary taken before,
  // as the bucket-wise difference. A window does not know its extremes: its
  // min and max read as the midpoints of its lowest and highest occupied
  // buckets, clamped to this summary's exact range. When `earlier` holds a
  // sample this summary lacks (a larger count or bucket, so it is not an
  // earlier state of this summary), the window is the whole summary.
  Summary Since(const Summary& earlier) const;

  size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double min() const;
  double max() const;
  double mean() const;
  double sum() const { return sum_; }
  // Sample standard deviation (n - 1 denominator).
  double stddev() const;
  // Population standard deviation, sqrt(sum(x^2)/n - (sum(x)/n)^2): what
  // iputils ping prints as "mdev".
  double mdev() const;
  // p in [0, 100]: linear interpolation between the order statistics at rank
  // p/100 * (n - 1). The smallest and largest are min() and max(); every
  // other one is its bucket's midpoint, clamped to [min, max].
  double Percentile(double p) const;
  // Fraction (0..1) of samples <= x. Exact, except that samples in x's own
  // bucket above x (less than 2^-7 relative) also count.
  double FractionBelow(double x) const;

  // The bucket store: the exact zeros, then one count per bucket from
  // first_bucket() up to the highest occupied bucket.
  uint64_t zeros() const { return zeros_; }
  uint32_t first_bucket() const { return first_; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  bool operator==(const Summary&) const = default;

 private:
  // Widens the bucket store to include bucket `b`.
  void Cover(uint32_t b);
  // Samples in bucket `b` (0 outside the store).
  uint64_t CountIn(uint32_t b) const;
  bool Contains(const Summary& earlier) const;
  // The k-th smallest sample (0-based), as Percentile reads it.
  double OrderStatistic(uint64_t k) const;

  std::vector<uint64_t> buckets_;
  uint32_t first_ = 0;
  uint64_t zeros_ = 0;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  // Welford running moments: the sum-of-squares shortcut cancels
  // catastrophically when stddev << mean (e.g. microsecond jitter on
  // millisecond latencies), which is exactly what latency metrics look like.
  double running_mean_ = 0;
  double m2_ = 0;
};

// A named monotonically increasing counter.
class Counter {
 public:
  void Inc(uint64_t by = 1) { value_ += by; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

}  // namespace taichi::sim

#endif  // SRC_SIM_STATS_H_
