#pragma once

#include <string>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

/// \file report.h
/// Result presentation for experiment harnesses: aligned ASCII tables (the
/// rows/series the paper's figures and tables report) and JSON result files
/// (the driver's output format in Fig. 3).

namespace skyrise::platform {

/// Column-aligned text table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  /// Renders with a header rule; every column padded to its widest cell.
  std::string Render() const;
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Renders a numeric series as a fixed-height ASCII chart (the plotter stage
/// of the framework), e.g. throughput over time.
std::string RenderAsciiSeries(const std::vector<double>& values,
                              int height = 8, int max_width = 100);

/// Writes an experiment result document to `path` (pretty JSON).
[[nodiscard]] Status WriteResultFile(const std::string& path, const Json& result);

/// Prints a experiment banner.
void PrintHeader(const std::string& experiment_id, const std::string& title);

/// Prints a short paper-vs-measured comparison line.
void PrintComparison(const std::string& metric, const std::string& paper,
                     const std::string& measured);

/// Renders the per-stage fault-tolerance table from a coordinator response
/// (retries, speculative launches, worker errors per pipeline, plus a total
/// row). Returns an empty string when the response reports no stages.
std::string RenderFaultSummary(const Json& coordinator_response);

/// Renders the per-stage worker execution table from a coordinator response:
/// fragment count, morsel batches processed, peak worker-resident memory, and
/// bytes moved per pipeline, plus a total row with the engine's memory-config
/// recommendation. Returns an empty string when the response has no stages.
std::string RenderWorkerStats(const Json& coordinator_response);

/// Renders the metrics registry as two tables: counters (name, value) and
/// latency histograms (count, mean, p50/p95/p99, max — the percentiles the
/// paper's latency figures report). Returns an empty string when the
/// registry holds nothing.
std::string RenderMetrics(const obs::MetricsRegistry& metrics);

/// Renders a query profile from a trace: the critical path (the chain of
/// latest-ending children from the slowest root span), a time-in-state
/// breakdown (per-category busy time, interval-union so overlapping spans
/// count once), and the top-10 slowest spans with their attributed cost.
/// Returns an empty string when the tracer holds no spans.
std::string RenderQueryProfile(const obs::Tracer& tracer);

}  // namespace skyrise::platform
