#pragma once

#include "common/random.h"
#include "common/units.h"

/// \file latency_model.h
/// First-byte latency distributions for storage requests: lognormal body with
/// a small Pareto-tail mixture, matching the shapes of Fig. 10 (e.g., S3
/// Standard: 27 ms median reads, 75 ms p95, ~10 s extreme outliers over 1M
/// requests).

namespace skyrise::storage {

struct LatencyProfile {
  double median_ms = 10.0;
  /// Sigma of the underlying normal; p95/median = exp(1.645 * sigma).
  double sigma = 0.4;
  /// Probability a request draws from the heavy Pareto tail instead.
  double tail_probability = 0.0;
  double tail_scale_ms = 200.0;
  double tail_alpha = 1.2;
  double min_ms = 0.2;

  /// Convenience: profile hitting a target p95 given a median.
  static LatencyProfile FromMedianP95(double median_ms, double p95_ms);
};

/// Draws one first-byte latency.
SimDuration SampleLatency(const LatencyProfile& profile, Rng* rng);

}  // namespace skyrise::storage
