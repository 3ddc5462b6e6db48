#pragma once

#include <map>
#include <string>

#include "common/histogram.h"
#include "common/json.h"

/// \file metrics.h
/// Per-service metrics registry: named monotonic counters plus log-bucketed
/// latency histograms, keyed by dotted paths ("lambda.cold_starts",
/// "storage.s3.attempts", "worker.input_ms"). This is the single stats path
/// for platform- and engine-level observability numbers — layers publish
/// here instead of growing ad-hoc counter fields, and reports render from
/// here. Backed by std::map, so iteration order (and the JSON export) is
/// deterministic.

namespace skyrise::obs {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Increments counter `name` by `delta` (creates it at 0 first).
  void Add(const std::string& name, int64_t delta = 1) {
    counters_[name] += delta;
  }
  /// Sets counter `name` to the max of its current value and `value`
  /// (high-water marks: peak memory, peak concurrency).
  void Max(const std::string& name, int64_t value) {
    int64_t& slot = counters_[name];
    if (value > slot) slot = value;
  }
  int64_t Counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Records `value` into histogram `name` (creates it on first use).
  void Record(const std::string& name, double value) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, Histogram(2)).first;
    }
    it->second.Record(value);
  }
  const Histogram* Hist(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  const std::map<std::string, int64_t>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// {"counters": {name: value}, "histograms": {name: {count, mean, p50,
  /// p95, p99, max}}}, deterministically ordered.
  Json ToJson() const;

  void Reset() {
    counters_.clear();
    histograms_.clear();
  }

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace skyrise::obs
