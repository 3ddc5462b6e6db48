#pragma once

#include <cstdint>

/// \file retry_budget.h
/// Shared per-query retry token pool (the classic "retry budget" from
/// SRE-style overload design): the first attempt of any request is free,
/// every retry — storage re-request, worker re-invocation, speculative
/// duplicate — must acquire a token from the query's single pool, and each
/// success refunds a small fraction (10-20%). Under a fault storm the pool
/// drains and the query degrades or fails typed instead of multiplying
/// load layer by layer: total retries across *all* layers are conserved at
/// `initial_tokens + refunds`, which is exactly the invariant the
/// chaos-sweep harness pins.
///
/// Deterministic by construction (plain arithmetic, no clock, no RNG), so
/// chaos runs with a fixed seed drain the budget identically every time.

namespace skyrise {

class RetryBudget {
 public:
  struct Options {
    /// Tokens available at query start; one retry consumes one token.
    double initial_tokens = 32;
    /// Fraction of a token returned per successful request, capped so the
    /// pool never exceeds its initial size (a long healthy run cannot bank
    /// unlimited retry capacity for a later storm).
    double refund_per_success = 0.15;
  };

  struct Stats {
    int64_t acquired = 0;  ///< Retries granted.
    int64_t denied = 0;    ///< Retries refused (pool empty).
    double refunded = 0;   ///< Tokens returned by successes.
  };

  RetryBudget() : RetryBudget(Options()) {}
  explicit RetryBudget(const Options& options);

  /// Takes one token for a retry attempt. False (and nothing is consumed)
  /// when less than one whole token remains.
  [[nodiscard]] bool TryAcquire();

  /// Refunds `refund_per_success` tokens, saturating at `initial_tokens`.
  void RecordSuccess();

  double tokens() const { return tokens_; }
  const Options& options() const { return opt_; }
  const Stats& stats() const { return stats_; }

 private:
  Options opt_;
  double tokens_ = 0;
  Stats stats_;
};

}  // namespace skyrise
