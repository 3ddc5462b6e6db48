#pragma once

#include "common/random.h"
#include "common/units.h"

/// \file arrival.h
/// Deterministic open-loop arrival processes for the serving frontend. Each
/// tenant owns one process seeded from the simulation RNG (never wall
/// clock), so a scenario's arrival sequence is a pure function of
/// (seed, spec): identical runs produce bit-identical arrival instants.
///
/// Three shapes cover the serving scenarios:
///  - kPoisson: homogeneous Poisson (exponential inter-arrivals).
///  - kDiurnal: inhomogeneous Poisson with a sinusoidal day/night rate,
///    sampled by thinning against the peak rate.
///  - kBursty: interrupted Poisson (ON/OFF bursts), the step-load shape used
///    to exercise the platform's burst-then-ramp admission path (Fig. 1).

namespace skyrise::serving {

struct ArrivalSpec {
  enum class Kind { kPoisson, kDiurnal, kBursty };
  Kind kind = Kind::kPoisson;

  /// Base arrival rate in queries/second. For kPoisson this is the rate;
  /// for kDiurnal the mean of the sinusoid; for kBursty the rate is
  /// `rate_per_sec * burst_multiplier` during bursts and
  /// `rate_per_sec * idle_multiplier` between them.
  double rate_per_sec = 1.0;

  // kDiurnal: rate(t) = rate_per_sec * (1 + amplitude * sin(2*pi*(t+phase)/period)).
  double diurnal_amplitude = 0.8;  ///< In [0, 1).
  SimDuration diurnal_period = Hours(24);
  SimDuration diurnal_phase = 0;

  // kBursty: exponentially distributed ON/OFF phase lengths.
  double burst_multiplier = 8.0;
  double idle_multiplier = 0.1;
  SimDuration burst_on_mean = Seconds(5);
  SimDuration burst_off_mean = Seconds(20);

  static ArrivalSpec Poisson(double rate_per_sec);
  static ArrivalSpec Diurnal(double rate_per_sec, double amplitude,
                             SimDuration period, SimDuration phase = 0);
  static ArrivalSpec Bursty(double rate_per_sec, double burst_multiplier,
                            SimDuration on_mean, SimDuration off_mean);
};

class ArrivalProcess {
 public:
  ArrivalProcess(const ArrivalSpec& spec, Rng rng);

  /// Absolute sim time of the next arrival strictly after `now`. Calls must
  /// pass non-decreasing `now` values (the frontend always passes the
  /// previous arrival instant), since the bursty phase machine advances
  /// with the samples it hands out.
  SimTime Next(SimTime now);

  /// Instantaneous target rate at `t` in queries/second (for tests/plots;
  /// for kBursty this is the phase the process would be in at `t` if `t` is
  /// within the already-sampled phase schedule).
  double RateAt(SimTime t) const;

  const ArrivalSpec& spec() const { return spec_; }

 private:
  double PeakRate() const;

  ArrivalSpec spec_;
  Rng rng_;
  // Bursty phase machine: the process is in a burst until/from
  // `phase_until_`; phases are sampled lazily as Next() crosses them.
  bool in_burst_ = false;
  SimTime phase_until_ = 0;
};

}  // namespace skyrise::serving
