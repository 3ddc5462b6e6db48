#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace skyrise::stats {

double Sum(const std::vector<double>& xs) {
  double s = 0;
  for (double x : xs) s += x;
  return s;
}

double Mean(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : Sum(xs) / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = Mean(xs);
  double acc = 0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double CoV(const std::vector<double>& xs) {
  const double m = Mean(xs);
  return m == 0.0 ? 0.0 : 100.0 * StdDev(xs) / m;
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 50.0); }

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double Min(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

std::vector<double> PolyFit(const std::vector<double>& xs,
                            const std::vector<double>& ys, int degree) {
  SKYRISE_CHECK(xs.size() == ys.size());
  SKYRISE_CHECK(degree >= 0);
  const int n = degree + 1;
  // Normal equations A^T A c = A^T y solved by Gaussian elimination with
  // partial pivoting. Fine for the low degrees used in experiment fits.
  std::vector<std::vector<double>> m(n, std::vector<double>(n + 1, 0.0));
  for (size_t k = 0; k < xs.size(); ++k) {
    double xi = 1.0;
    std::vector<double> powers(2 * n - 1);
    for (int i = 0; i < 2 * n - 1; ++i) {
      powers[i] = xi;
      xi *= xs[k];
    }
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) m[r][c] += powers[r + c];
      m[r][n] += powers[r] * ys[k];
    }
  }
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    for (int r = col + 1; r < n; ++r) {
      if (std::fabs(m[r][col]) > std::fabs(m[pivot][col])) pivot = r;
    }
    std::swap(m[col], m[pivot]);
    if (std::fabs(m[col][col]) < 1e-12) continue;  // Degenerate; leave zero.
    for (int r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = m[r][col] / m[col][col];
      for (int c = col; c <= n; ++c) m[r][c] -= f * m[col][c];
    }
  }
  std::vector<double> coeffs(n, 0.0);
  for (int r = 0; r < n; ++r) {
    coeffs[r] = std::fabs(m[r][r]) < 1e-12 ? 0.0 : m[r][n] / m[r][r];
  }
  return coeffs;
}

double PolyEval(const std::vector<double>& coeffs, double x) {
  double acc = 0;
  for (size_t i = coeffs.size(); i-- > 0;) acc = acc * x + coeffs[i];
  return acc;
}

}  // namespace skyrise::stats
