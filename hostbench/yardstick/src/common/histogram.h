#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file histogram.h
/// HDR-style log-bucketed histogram for latency/size distributions. Records
/// non-negative values with bounded relative error and answers percentile
/// queries over millions of samples in O(buckets).

namespace skyrise {

class Histogram {
 public:
  /// `significant_digits` controls relative precision (1-3 supported).
  explicit Histogram(int significant_digits = 2);

  void Record(double value);
  void RecordN(double value, int64_t count);

  int64_t count() const { return count_; }
  double min() const;
  double max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
  double sum() const { return sum_; }

  /// Value at percentile p in [0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  /// Standard deviation of recorded values (approximate, bucket midpoints).
  double StdDev() const;
  /// Coefficient of variation in percent: 100 * stddev / mean.
  double CoV() const;

  void Merge(const Histogram& other);
  void Reset();

  /// One-line summary: count, mean, p50/p95/p99/max.
  std::string Summary(const std::string& unit = "") const;

 private:
  size_t BucketIndex(double value) const;
  double BucketMid(size_t index) const;

  int sub_bucket_bits_;        ///< log2 of sub-buckets per power of two.
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0;
  double sum_sq_ = 0;
  double min_ = 0;
  double max_ = 0;
  bool has_values_ = false;
};

}  // namespace skyrise
