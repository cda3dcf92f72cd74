#include "src/sim/stats.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/sim/logging.h"

namespace taichi::sim {
namespace {

// Dropping the sign, the 11 exponent bits and the top 7 mantissa bits of a
// double leave 45 bits: the bucket's linear position within its power of two.
constexpr int kShift = 45;

// The bucket's midpoint: its lower edge with the highest dropped bit set.
double Midpoint(uint32_t bucket) {
  return std::bit_cast<double>((uint64_t{bucket} << kShift) | (uint64_t{1} << (kShift - 1)));
}

}  // namespace

uint32_t Summary::Bucket(double sample) {
  return static_cast<uint32_t>(std::bit_cast<uint64_t>(sample) >> kShift);
}

void Summary::Add(double sample) {
  // One range test rejects negatives, NaN and infinity.
  if (!(sample >= 0 && sample <= std::numeric_limits<double>::max())) {
    TAICHI_ERROR(0, "stats: Summary::Add(%g): a sample must be finite and >= 0", sample);
    assert(false && "Summary::Add: negative or non-finite sample");
    return;
  }
  ++count_;
  sum_ += sample;
  min_ = count_ == 1 ? sample : std::min(min_, sample);
  max_ = count_ == 1 ? sample : std::max(max_, sample);
  const double delta = sample - running_mean_;
  running_mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - running_mean_);
  if (sample == 0) {
    ++zeros_;
    return;
  }
  const uint32_t b = Bucket(sample);
  if (b - first_ >= buckets_.size()) {  // Also true below first_: unsigned wrap.
    Cover(b);
  }
  ++buckets_[b - first_];
}

void Summary::Cover(uint32_t b) {
  if (buckets_.empty()) {
    first_ = b;
    buckets_.assign(1, 0);
  } else if (b < first_) {
    buckets_.insert(buckets_.begin(), first_ - b, 0);
    first_ = b;
  } else if (b - first_ >= buckets_.size()) {
    buckets_.resize(b - first_ + 1, 0);
  }
}

uint64_t Summary::CountIn(uint32_t b) const {
  return b - first_ < buckets_.size() ? buckets_[b - first_] : 0;
}

void Summary::Merge(const Summary& other) {
  if (other.empty()) {
    return;
  }
  if (empty()) {
    *this = other;
    return;
  }
  if (!other.buckets_.empty()) {
    Cover(other.first_);
    Cover(other.first_ + static_cast<uint32_t>(other.buckets_.size() - 1));
    for (size_t i = 0; i < other.buckets_.size(); ++i) {
      buckets_[other.first_ - first_ + i] += other.buckets_[i];
    }
  }
  zeros_ += other.zeros_;
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.running_mean_ - running_mean_;
  running_mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

bool Summary::Contains(const Summary& earlier) const {
  if (earlier.count_ > count_ || earlier.zeros_ > zeros_) {
    return false;
  }
  for (size_t i = 0; i < earlier.buckets_.size(); ++i) {
    if (earlier.buckets_[i] > CountIn(earlier.first_ + static_cast<uint32_t>(i))) {
      return false;
    }
  }
  return true;
}

Summary Summary::Since(const Summary& earlier) const {
  if (earlier.empty() || !Contains(earlier)) {
    return *this;
  }
  Summary window;
  window.count_ = count_ - earlier.count_;
  if (window.count_ == 0) {
    return window;
  }
  window.zeros_ = zeros_ - earlier.zeros_;
  std::vector<uint64_t> diff(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    diff[i] = buckets_[i] - earlier.CountIn(first_ + static_cast<uint32_t>(i));
  }
  const auto lo = std::find_if(diff.begin(), diff.end(), [](uint64_t c) { return c > 0; });
  const auto hi = std::find_if(diff.rbegin(), diff.rend(), [](uint64_t c) { return c > 0; });
  if (lo != diff.end()) {
    window.first_ = first_ + static_cast<uint32_t>(lo - diff.begin());
    window.buckets_.assign(lo, hi.base());
  }
  // Chan's merge formula, solved for the second part.
  const double n = static_cast<double>(count_);
  const double na = static_cast<double>(earlier.count_);
  const double nb = static_cast<double>(window.count_);
  window.sum_ = sum_ - earlier.sum_;
  window.running_mean_ = (running_mean_ * n - earlier.running_mean_ * na) / nb;
  const double delta = window.running_mean_ - earlier.running_mean_;
  window.m2_ = std::max(0.0, m2_ - earlier.m2_ - delta * delta * na * nb / n);
  window.min_ = window.zeros_ > 0 ? 0.0 : std::clamp(Midpoint(window.first_), min_, max_);
  window.max_ =
      window.buckets_.empty()
          ? 0.0
          : std::clamp(Midpoint(window.first_ + static_cast<uint32_t>(window.buckets_.size() - 1)),
                       min_, max_);
  return window;
}

double Summary::min() const {
  assert(!empty());
  return min_;
}

double Summary::max() const {
  assert(!empty());
  return max_;
}

double Summary::mean() const {
  assert(!empty());
  return sum_ / static_cast<double>(count_);
}

double Summary::stddev() const {
  if (count_ < 2) {
    return 0;
  }
  double var = m2_ / static_cast<double>(count_ - 1);
  return var > 0 ? std::sqrt(var) : 0;
}

double Summary::mdev() const {
  if (empty()) {
    return 0;
  }
  const double var = m2_ / static_cast<double>(count_);
  return var > 0 ? std::sqrt(var) : 0;
}

double Summary::OrderStatistic(uint64_t k) const {
  if (k == 0) {
    return min_;
  }
  if (k + 1 >= count_) {
    return max_;
  }
  uint64_t seen = zeros_;
  if (k < seen) {
    return 0;
  }
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (k < seen) {
      return std::clamp(Midpoint(first_ + static_cast<uint32_t>(i)), min_, max_);
    }
  }
  return max_;
}

double Summary::Percentile(double p) const {
  assert(!empty());
  p = std::clamp(p, 0.0, 100.0);
  if (count_ == 1) {
    return min_;
  }
  double rank = p / 100.0 * static_cast<double>(count_ - 1);
  uint64_t lo = static_cast<uint64_t>(rank);
  uint64_t hi = std::min(lo + 1, count_ - 1);
  double frac = rank - static_cast<double>(lo);
  return OrderStatistic(lo) * (1.0 - frac) + OrderStatistic(hi) * frac;
}

double Summary::FractionBelow(double x) const {
  if (empty() || x < min_) {
    return 0;
  }
  if (x >= max_) {
    return 1;
  }
  uint64_t below = zeros_;
  if (x > 0) {
    const uint32_t last = Bucket(x);
    for (size_t i = 0; i < buckets_.size() && first_ + i <= last; ++i) {
      below += buckets_[i];
    }
  }
  return static_cast<double>(below) / static_cast<double>(count_);
}

}  // namespace taichi::sim
