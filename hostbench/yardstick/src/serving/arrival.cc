#include "serving/arrival.h"

#include <algorithm>
#include <cmath>

namespace skyrise::serving {

ArrivalSpec ArrivalSpec::Poisson(double rate_per_sec) {
  ArrivalSpec spec;
  spec.kind = Kind::kPoisson;
  spec.rate_per_sec = rate_per_sec;
  return spec;
}

ArrivalSpec ArrivalSpec::Diurnal(double rate_per_sec, double amplitude,
                                 SimDuration period, SimDuration phase) {
  ArrivalSpec spec;
  spec.kind = Kind::kDiurnal;
  spec.rate_per_sec = rate_per_sec;
  spec.diurnal_amplitude = amplitude;
  spec.diurnal_period = period;
  spec.diurnal_phase = phase;
  return spec;
}

ArrivalSpec ArrivalSpec::Bursty(double rate_per_sec, double burst_multiplier,
                                SimDuration on_mean, SimDuration off_mean) {
  ArrivalSpec spec;
  spec.kind = Kind::kBursty;
  spec.rate_per_sec = rate_per_sec;
  spec.burst_multiplier = burst_multiplier;
  spec.burst_on_mean = on_mean;
  spec.burst_off_mean = off_mean;
  return spec;
}

ArrivalProcess::ArrivalProcess(const ArrivalSpec& spec, Rng rng)
    : spec_(spec), rng_(rng) {}

double ArrivalProcess::PeakRate() const {
  switch (spec_.kind) {
    case ArrivalSpec::Kind::kPoisson:
      return spec_.rate_per_sec;
    case ArrivalSpec::Kind::kDiurnal:
      return spec_.rate_per_sec * (1.0 + spec_.diurnal_amplitude);
    case ArrivalSpec::Kind::kBursty:
      return spec_.rate_per_sec * spec_.burst_multiplier;
  }
  return spec_.rate_per_sec;
}

double ArrivalProcess::RateAt(SimTime t) const {
  switch (spec_.kind) {
    case ArrivalSpec::Kind::kPoisson:
      return spec_.rate_per_sec;
    case ArrivalSpec::Kind::kDiurnal: {
      const double x = 2.0 * M_PI *
                       ToSeconds(t + spec_.diurnal_phase) /
                       ToSeconds(spec_.diurnal_period);
      return spec_.rate_per_sec *
             (1.0 + spec_.diurnal_amplitude * std::sin(x));
    }
    case ArrivalSpec::Kind::kBursty:
      return spec_.rate_per_sec *
             (in_burst_ ? spec_.burst_multiplier : spec_.idle_multiplier);
  }
  return spec_.rate_per_sec;
}

SimTime ArrivalProcess::Next(SimTime now) {
  switch (spec_.kind) {
    case ArrivalSpec::Kind::kPoisson: {
      const double gap_us = rng_.Exponential(1e6 / spec_.rate_per_sec);
      return now + std::max<SimDuration>(1, Micros(gap_us));
    }
    case ArrivalSpec::Kind::kDiurnal: {
      // Thinning (Lewis & Shedler): sample candidates at the peak rate and
      // accept each with probability rate(t)/peak. Both draws come from the
      // process's own stream, so the accepted sequence is deterministic.
      const double peak = PeakRate();
      SimTime t = now;
      for (;;) {
        const double gap_us = rng_.Exponential(1e6 / peak);
        t += std::max<SimDuration>(1, Micros(gap_us));
        if (rng_.NextDouble() < RateAt(t) / peak) return t;
      }
    }
    case ArrivalSpec::Kind::kBursty: {
      // Interrupted Poisson: a two-state phase machine modulates the rate.
      // The exponential is memoryless, so re-sampling the gap after a phase
      // boundary preserves the per-phase process.
      SimTime t = now;
      for (;;) {
        if (t >= phase_until_) {
          in_burst_ = !in_burst_;
          const SimDuration mean =
              in_burst_ ? spec_.burst_on_mean : spec_.burst_off_mean;
          phase_until_ =
              t + std::max<SimDuration>(
                      1, Micros(rng_.Exponential(ToSeconds(mean) * 1e6)));
        }
        const double rate =
            spec_.rate_per_sec *
            (in_burst_ ? spec_.burst_multiplier : spec_.idle_multiplier);
        if (rate <= 0) {
          t = phase_until_;
          continue;
        }
        const double gap_us = rng_.Exponential(1e6 / rate);
        const SimTime candidate = t + std::max<SimDuration>(1, Micros(gap_us));
        if (candidate <= phase_until_) return candidate;
        t = phase_until_;
      }
    }
  }
  return now + 1;
}

}  // namespace skyrise::serving
