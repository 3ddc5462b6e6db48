#pragma once

#include <cstdint>

#include "common/units.h"

/// \file token_bucket.h
/// Rate-limiting primitives used by the network and storage models.
///
/// `TokenBucket` is the classic continuously-refilled bucket (EC2 NICs, S3
/// partition IOPS, DynamoDB burst capacity). `BurstBudget` implements the
/// Lambda NIC semantics reverse-engineered in Section 4.2 of the paper: a
/// one-off non-rechargeable budget plus a rechargeable bucket that refills to
/// full when the NIC goes idle, and a chunked baseline allowance once both
/// are drained (7.5 MiB per 100 ms interval -> 75 MiB/s).

namespace skyrise::sim {

class TokenBucket {
 public:
  /// `capacity`/`initial` in tokens, `fill_rate` in tokens per second.
  TokenBucket(double capacity, double fill_rate_per_sec, double initial);

  /// Tokens currently available at virtual time `now`.
  double Available(SimTime now);

  /// Consumes up to `requested` tokens; returns the amount granted.
  double Consume(double requested, SimTime now);

  /// Consumes exactly `amount` if available; returns false otherwise.
  bool TryConsume(double amount, SimTime now);

  /// Virtual time until `amount` tokens will be available (0 if already).
  SimDuration TimeUntilAvailable(double amount, SimTime now);

  double capacity() const { return capacity_; }
  double fill_rate() const { return fill_rate_; }

  /// Forces the token count (used for warm/cold scenario setup).
  void SetTokens(double tokens, SimTime now);

 private:
  void Refill(SimTime now);

  double capacity_;
  double fill_rate_;  ///< Tokens per second.
  double tokens_;
  SimTime last_refill_ = 0;
};

/// Lambda-style dual-budget NIC allowance (one direction).
class BurstBudget {
 public:
  struct Options {
    double one_off_bytes = 150.0 * kMiB;     ///< Non-rechargeable.
    double bucket_bytes = 150.0 * kMiB;      ///< Rechargeable on idle.
    double burst_rate = 1.2 * kGiB;          ///< Bytes/s while budget lasts.
    double baseline_chunk_bytes = 7.5 * kMiB;
    SimDuration baseline_interval = Millis(100);
    SimDuration idle_refill_after = Millis(500);
  };

  explicit BurstBudget(const Options& options);

  /// Bytes permitted for a transfer window [now, now + dt). Also detects idle
  /// gaps and refills the rechargeable bucket.
  double AllowedBytes(SimTime now, SimDuration dt);

  /// Records actual consumption for the window starting at `now`.
  void Consume(double bytes, SimTime now);

  /// True while burst budget (one-off + bucket) has tokens left.
  bool InBurst() const { return one_off_ + bucket_ > 0.5; }

  double one_off_remaining() const { return one_off_; }
  double bucket_remaining() const { return bucket_; }

  /// Notifies that the owner released the NIC (function stopped/terminated);
  /// triggers the idle refill immediately.
  void NotifyIdle();

 private:
  void MaybeIdleRefill(SimTime now);
  /// Baseline tokens currently usable in the chunk interval containing `now`.
  double BaselineAvailable(SimTime now);

  Options opt_;
  double one_off_;
  double bucket_;
  double baseline_available_ = 0;
  int64_t baseline_interval_index_ = -1;
  SimTime last_activity_ = 0;
  bool ever_active_ = false;
};

}  // namespace skyrise::sim
