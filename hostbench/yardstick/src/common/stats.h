#pragma once

#include <vector>

/// \file stats.h
/// Exact summary statistics over small-to-medium sample vectors, used for
/// experiment reporting (median ratios, coefficients of variation, fits).

namespace skyrise::stats {

double Sum(const std::vector<double>& xs);
double Mean(const std::vector<double>& xs);
/// Sample standard deviation (n-1 denominator); 0 for n < 2.
double StdDev(const std::vector<double>& xs);
/// Coefficient of variation in percent: 100 * stddev / mean.
double CoV(const std::vector<double>& xs);
/// Exact median (average of middle two for even n).
double Median(std::vector<double> xs);
/// Exact percentile p in [0,100] with linear interpolation.
double Percentile(std::vector<double> xs, double p);
double Min(const std::vector<double>& xs);
double Max(const std::vector<double>& xs);

/// Least-squares polynomial fit of given degree; returns coefficients
/// c[0] + c[1] x + ... + c[degree] x^degree. Used for the Fig. 12
/// time/cost extrapolation.
std::vector<double> PolyFit(const std::vector<double>& xs,
                            const std::vector<double>& ys, int degree);
/// Evaluates a polynomial (coefficients low-order first) at x.
double PolyEval(const std::vector<double>& coeffs, double x);

}  // namespace skyrise::stats
