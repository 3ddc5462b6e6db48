#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

/// \file random.h
/// Deterministic random number generation. Every simulation entity owns its
/// own `Rng` seeded from the experiment seed plus a stable stream id, so runs
/// are reproducible regardless of event interleavings.

namespace skyrise {

/// xoshiro256++ — fast, high-quality, 64-bit PRNG.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Derives an independent stream for entity `stream_id`.
  Rng Fork(uint64_t stream_id) const;

  uint64_t NextUint64();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi);

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p);

  /// Exponential with mean `mean`.
  double Exponential(double mean);

  /// Standard normal via Box-Muller (no state caching, deterministic).
  double Normal(double mean, double stddev);

  /// Lognormal parameterized by the underlying normal's mu/sigma.
  double Lognormal(double mu, double sigma);

  /// Lognormal parameterized by target median and sigma (mu = ln(median)).
  double LognormalMedianSigma(double median, double sigma) {
    return Lognormal(std::log(median), sigma);
  }

  /// Pareto with scale x_m and shape alpha (heavy tail for alpha small).
  double Pareto(double scale, double alpha);

  /// Zipf-distributed integer in [0, n) with skew s (s=0 → uniform).
  /// Builds a ZipfSampler per call: O(n); hoist a ZipfSampler out of loops.
  int64_t Zipf(int64_t n, double s);

  /// Fills `out` with random bytes (for synthetic payload generation).
  void FillBytes(uint8_t* out, size_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

/// Zipf-distributed integers in [0, n) with skew s, built once per (n, s):
/// holds the prefix sums of 1/k^s (k = 1..n, accumulated in order), so a
/// draw is one uniform u in [0, sum) plus a binary search for the first
/// prefix >= u. For s <= 0 a draw is Rng::UniformInt(0, n - 1).
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);

  int64_t Sample(Rng* rng) const;

 private:
  int64_t n_;
  std::vector<double> prefix_;  ///< Empty when s <= 0.
};

}  // namespace skyrise
