#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace skyrise {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng root(7);
  Rng a1 = root.Fork(1);
  Rng a2 = root.Fork(1);
  Rng b = root.Fork(2);
  EXPECT_EQ(a1.NextUint64(), a2.NextUint64());
  EXPECT_NE(a1.NextUint64(), b.NextUint64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(4, 4), 4);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, LognormalMedianApproximatelyCorrect) {
  Rng rng(19);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) {
    xs.push_back(rng.LognormalMedianSigma(27.0, 0.5));
  }
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  EXPECT_NEAR(xs[xs.size() / 2], 27.0, 1.5);
}

TEST(RngTest, ParetoIsHeavyTailedAboveScale) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
}

TEST(RngTest, ZipfSkewsTowardSmallValues) {
  Rng rng(29);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[static_cast<size_t>(rng.Zipf(10, 1.0))];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], counts[9]);
}

TEST(RngTest, ZipfZeroSkewIsUniformish) {
  Rng rng(31);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) {
    ++counts[static_cast<size_t>(rng.Zipf(4, 0.0))];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

/// The per-draw Zipf loop ZipfSampler replaced: sums the harmonic series for
/// the normalizer, then walks it again to the first prefix >= u. Kept as the
/// reference the sampler must match draw for draw.
int64_t ReferenceZipf(Rng* rng, int64_t n, double s) {
  if (s <= 0.0) return rng->UniformInt(0, n - 1);
  double h = 0;
  for (int64_t k = 1; k <= n; ++k) h += 1.0 / std::pow(k, s);
  const double u = rng->NextDouble() * h;
  double acc = 0;
  for (int64_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(k, s);
    if (acc >= u) return k - 1;
  }
  return n - 1;
}

TEST(RngTest, ZipfSamplerMatchesReferenceLoopDrawForDraw) {
  for (uint64_t seed : {1u, 7u, 2024u}) {
    for (int64_t n : {1, 2, 20, 1000}) {
      for (double s : {-1.0, 0.0, 0.5, 0.8, 1.0, 2.5}) {
        Rng expected(seed), sampled(seed), wrapped(seed);
        const ZipfSampler sampler(n, s);
        for (int i = 0; i < 500; ++i) {
          const int64_t want = ReferenceZipf(&expected, n, s);
          ASSERT_EQ(sampler.Sample(&sampled), want)
              << "seed " << seed << " n " << n << " s " << s << " draw " << i;
          ASSERT_EQ(wrapped.Zipf(n, s), want)
              << "seed " << seed << " n " << n << " s " << s << " draw " << i;
        }
      }
    }
  }
}

TEST(RngTest, FillBytesFillsEveryLength) {
  Rng rng(37);
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 64u, 1000u}) {
    std::vector<uint8_t> buf(len + 2, 0xAB);
    rng.FillBytes(buf.data(), len);
    // Guard bytes untouched.
    EXPECT_EQ(buf[len], 0xAB);
    EXPECT_EQ(buf[len + 1], 0xAB);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

}  // namespace
}  // namespace skyrise
