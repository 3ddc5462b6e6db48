#include "obs/metrics.h"

namespace skyrise::obs {

Json MetricsRegistry::ToJson() const {
  Json counters = Json::Object();
  for (const auto& [name, value] : counters_) counters[name] = value;
  Json histograms = Json::Object();
  for (const auto& [name, hist] : histograms_) {
    Json entry = Json::Object();
    entry["count"] = hist.count();
    entry["mean"] = hist.mean();
    entry["p50"] = hist.Percentile(50.0);
    entry["p95"] = hist.Percentile(95.0);
    entry["p99"] = hist.Percentile(99.0);
    entry["max"] = hist.max();
    histograms[name] = std::move(entry);
  }
  Json doc = Json::Object();
  doc["counters"] = std::move(counters);
  doc["histograms"] = std::move(histograms);
  return doc;
}

}  // namespace skyrise::obs
