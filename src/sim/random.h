// Deterministic random number generation and the distributions used by the
// workload models.
#ifndef SRC_SIM_RANDOM_H_
#define SRC_SIM_RANDOM_H_

#include <cmath>
#include <cstdint>

#include "src/sim/time.h"

namespace taichi::sim {

// xoshiro256** generator: fast, high quality, and unlike std::mt19937_64 its
// output sequence is identical across standard library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  void Seed(uint64_t seed);

  // Uniform on [0, 2^64).
  uint64_t Next();

  // Uniform on [0, 1).
  double NextDouble();

  // Uniform integer on [lo, hi] inclusive. Requires lo <= hi.
  uint64_t UniformInt(uint64_t lo, uint64_t hi);

  // Uniform real on [lo, hi).
  double Uniform(double lo, double hi);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  // Exponential with the given mean (= 1/lambda).
  double Exponential(double mean);

  // Standard normal via Box-Muller, then scaled.
  double Normal(double mean, double stddev);

  // Log-normal parameterized by the *target* mean and sigma of the underlying
  // normal. Used for heavy-ish service time distributions.
  double LogNormal(double mean, double sigma);

  // Bounded Pareto on [lo, hi] with tail index alpha. Heavy-tailed durations
  // such as the non-preemptible routine lengths of Fig. 5 use this.
  double BoundedPareto(double lo, double hi, double alpha);

  // Duration helpers: nanosecond-rounded draws, never returning zero.
  Duration ExpDuration(Duration mean);
  Duration UniformDuration(Duration lo, Duration hi);

 private:
  uint64_t s_[4];
};

}  // namespace taichi::sim

#endif  // SRC_SIM_RANDOM_H_
