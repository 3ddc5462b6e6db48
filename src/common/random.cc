#include "common/random.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace skyrise {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// splitmix64 — used to expand seeds into full state.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Mix the current state with the stream id through splitmix.
  uint64_t sm = s_[0] ^ Rotl(s_[2], 17) ^ (stream_id * 0xD1B54A32D192ED03ULL);
  Rng child(SplitMix64(&sm));
  return child;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
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
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  SKYRISE_CHECK(lo <= hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextUint64());  // Full range.
  // Lemire's nearly-divisionless bounded sampling (single multiply; the bias
  // at 64-bit scale is negligible for simulation purposes).
  const uint64_t x = NextUint64();
  const unsigned __int128 m = static_cast<unsigned __int128>(x) * range;
  return lo + static_cast<int64_t>(static_cast<uint64_t>(m >> 64));
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Exponential(double mean) {
  double u = NextDouble();
  if (u >= 1.0) u = 0.9999999999999999;
  return -mean * std::log1p(-u);
}

double Rng::Normal(double mean, double stddev) {
  // Box-Muller; draws two uniforms per call for statelessness.
  double u1 = NextDouble();
  const double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 1e-300;
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * M_PI * u2);
}

double Rng::Lognormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

double Rng::Pareto(double scale, double alpha) {
  double u = NextDouble();
  if (u >= 1.0) u = 0.9999999999999999;
  return scale / std::pow(1.0 - u, 1.0 / alpha);
}

int64_t Rng::Zipf(int64_t n, double s) {
  return ZipfSampler(n, s).Sample(this);
}

void Rng::FillBytes(uint8_t* out, size_t n) {
  size_t i = 0;
  while (i + 8 <= n) {
    const uint64_t v = NextUint64();
    std::memcpy(out + i, &v, 8);
    i += 8;
  }
  if (i < n) {
    const uint64_t v = NextUint64();
    std::memcpy(out + i, &v, n - i);
  }
}

ZipfSampler::ZipfSampler(int64_t n, double s) : n_(n) {
  SKYRISE_CHECK(n > 0);
  if (s <= 0.0) return;
  prefix_.reserve(static_cast<size_t>(n));
  double acc = 0;
  for (int64_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(k, s);
    prefix_.push_back(acc);
  }
}

int64_t ZipfSampler::Sample(Rng* rng) const {
  if (prefix_.empty()) return rng->UniformInt(0, n_ - 1);
  const double u = rng->NextDouble() * prefix_.back();
  const auto it = std::lower_bound(prefix_.begin(), prefix_.end(), u);
  if (it == prefix_.end()) return n_ - 1;
  return it - prefix_.begin();
}

}  // namespace skyrise
