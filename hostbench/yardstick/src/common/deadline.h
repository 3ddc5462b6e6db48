#pragma once

#include <algorithm>
#include <limits>

#include "common/units.h"

/// \file deadline.h
/// Absolute end-to-end deadline carried down the request path (query ->
/// invoke -> storage request -> backoff wait). A deadline is a point on the
/// simulation clock, not a duration: every layer that waits or retries
/// clamps its own timers against `Remaining(now)` so the cumulative work a
/// request triggers can never outlive the caller that asked for it (the
/// retry-amplification fix: max_attempts × backoff_cap used to dwarf any
/// caller's useful lifetime). Default-constructed deadlines are unbounded,
/// which keeps every existing call site byte-for-byte unchanged until a
/// bounded deadline is explicitly threaded in.

namespace skyrise {

class Deadline {
 public:
  /// Unbounded: never expires, never clamps.
  constexpr Deadline() = default;

  /// Deadline at the absolute simulation time `at`. `at <= 0` means
  /// unbounded (the natural encoding for "deadline_us" payload fields,
  /// where 0/absent means no deadline was propagated).
  static constexpr Deadline At(SimTime at) { return Deadline(at); }

  /// Deadline `after` from `now` (<= 0 duration means unbounded).
  static constexpr Deadline After(SimTime now, SimDuration after) {
    return after <= 0 ? Deadline() : Deadline(now + after);
  }

  constexpr bool bounded() const { return at_ != kUnbounded; }
  /// Absolute expiry, or 0 when unbounded (payload encoding).
  constexpr SimTime at_or_zero() const { return bounded() ? at_ : 0; }

  constexpr bool Expired(SimTime now) const {
    return bounded() && now >= at_;
  }

  /// Time left before expiry; never negative. Unbounded deadlines report
  /// the maximum representable duration.
  constexpr SimDuration Remaining(SimTime now) const {
    if (!bounded()) return kUnbounded;
    return at_ > now ? at_ - now : 0;
  }

  /// Clamps a proposed wait/timeout to the remaining lifetime.
  constexpr SimDuration Clamp(SimTime now, SimDuration duration) const {
    return std::min(duration, Remaining(now));
  }

  /// The tighter of two deadlines.
  constexpr Deadline Earliest(Deadline other) const {
    return at_ <= other.at_ ? *this : other;
  }

  constexpr bool operator==(const Deadline& other) const {
    return at_ == other.at_;
  }

 private:
  static constexpr SimTime kUnbounded = std::numeric_limits<SimTime>::max();

  explicit constexpr Deadline(SimTime at)
      : at_(at <= 0 ? kUnbounded : at) {}

  SimTime at_ = kUnbounded;
};

}  // namespace skyrise
