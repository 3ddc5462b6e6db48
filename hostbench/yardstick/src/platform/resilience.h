#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/units.h"

/// \file resilience.h
/// Deterministic chaos-sweep harness for overload robustness (see DESIGN.md
/// "Overload & degradation model"). Sweeps a fault-intensity x seed grid
/// through representative TPC-H queries on a full engine stack with the
/// robustness features armed (end-to-end deadline, per-query retry budget,
/// storage/invoke circuit breakers) and asserts the resilience invariants:
///
///   1. No hang: every query settles its callback inside the horizon —
///      completion or a typed failure, never silence.
///   2. Bit-identity: a query that completes under chaos produces result
///      bytes identical to the same seed's fault-free run.
///   3. Typed failure: a query that does not complete fails with
///      DeadlineExceeded or ResourceExhausted (shed), never an untyped hang
///      or a raw internal error from the robustness machinery.
///   4. Bounded amplification: storage requests under chaos stay within a
///      configured factor of the fault-free run (the retry budget conserves
///      retries across layers; no retry storms).
///   5. Budget conservation: retries granted never exceed the initial pool
///      plus refunds earned.
///   6. Zero span leaks: after the sweep drains, the tracer validates and
///      has no open spans.
///   7. Cost reconciliation: per-span attributed USD equals the cost meters
///      bitwise per bucket.
///
/// Everything downstream of the seed is deterministic, so the emitted
/// BENCH_resilience.json is byte-identical across runs of the same config —
/// the determinism pin CI enforces.

namespace skyrise::platform {

struct ChaosSweepConfig {
  /// Fault-intensity grid: each value scales the aggressive chaos profile's
  /// probabilities (0 = fault-free baseline; 1 = full chaos profile).
  std::vector<double> intensities = {0.0, 0.5, 1.0};
  std::vector<uint64_t> seeds = {2024, 7};

  // Dataset / query shape (chaos-e2e scale: small but multi-stage).
  int partitions = 6;
  double tpch_scale_factor = 0.002;
  int join_partitions = 4;

  // Robustness policy under test.
  SimDuration query_deadline = Minutes(30);
  double retry_budget_tokens = 256;
  double retry_budget_refund = 0.15;
  bool enable_breakers = true;
  int worker_max_attempts = 8;

  /// Invariant 4 bound: chaos-run storage requests per query must stay
  /// within this factor of the same seed's fault-free request count.
  double amplification_limit = 8.0;
  /// No-hang bound per query (virtual time).
  SimDuration horizon = Minutes(60);
};

struct ChaosSweepOutcome {
  Json report = Json::Object();  ///< The BENCH_resilience.json document.
  bool ok = false;               ///< All invariants held across the grid.
  std::vector<std::string> violations;
};

/// Runs the sweep; purely simulated and deterministic in `config`.
ChaosSweepOutcome RunChaosSweep(const ChaosSweepConfig& config);

}  // namespace skyrise::platform
