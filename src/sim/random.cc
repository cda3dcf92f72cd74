#include "src/sim/random.h"

#include <algorithm>
#include <cassert>

namespace taichi::sim {
namespace {

constexpr uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// splitmix64, the canonical seeder for xoshiro.
uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::UniformInt(uint64_t lo, uint64_t hi) {
  assert(lo <= hi);
  const uint64_t span = hi - lo + 1;
  if (span == 0) {  // Full 64-bit range.
    return Next();
  }
  return lo + Next() % span;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double mean) {
  double u = NextDouble();
  // Guard log(0).
  u = std::max(u, 1e-18);
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  // Box-Muller; one draw per call keeps the stream layout simple and
  // reproducible even when calls interleave with other distributions.
  double u1 = std::max(NextDouble(), 1e-18);
  double u2 = NextDouble();
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean + stddev * z;
}

double Rng::LogNormal(double mean, double sigma) {
  // Choose mu so the distribution's mean equals `mean`.
  double mu = std::log(mean) - sigma * sigma / 2.0;
  return std::exp(mu + sigma * Normal(0.0, 1.0));
}

double Rng::BoundedPareto(double lo, double hi, double alpha) {
  assert(lo > 0 && hi > lo && alpha > 0);
  double u = NextDouble();
  double la = std::pow(lo, alpha);
  double ha = std::pow(hi, alpha);
  double x = -(u * ha - u * la - ha) / (ha * la);
  return std::pow(1.0 / x, 1.0 / alpha);
}

Duration Rng::ExpDuration(Duration mean) {
  double d = Exponential(static_cast<double>(mean));
  return std::max<Duration>(1, static_cast<Duration>(d));
}

Duration Rng::UniformDuration(Duration lo, Duration hi) {
  return UniformInt(std::max<Duration>(lo, 1), std::max<Duration>(hi, 1));
}

}  // namespace taichi::sim
