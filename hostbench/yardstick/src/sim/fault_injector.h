#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "sim/environment.h"

/// \file fault_injector.h
/// Seeded, deterministic fault injection for chaos experiments. One injector
/// is shared by every service in a testbed; each consumer asks it for a
/// decision at well-defined points (storage admission, function execution
/// start, invoke dispatch, data-path streaming). All randomness comes from an
/// `Rng` stream forked off the simulation seed, so for a fixed (seed,
/// profile) the exact same faults fire at the exact same virtual times — a
/// chaos run is as reproducible as a fault-free one.
///
/// Fault classes follow the reliability observations of Sections 3.2/4.4:
///  - transient storage 500/503 responses, optionally clustered into bursts
///    (SlowDown storms on cold prefix partitions),
///  - function crashes mid-execution and sandbox kills (worker loss at
///    1,000-way fan-out),
///  - invoke-path latency spikes (slow placement/dispatch),
///  - network blips (added first-byte latency on the storage data path).

namespace skyrise::sim {

class FaultInjector {
 public:
  struct Profile {
    // --- Storage faults (consumed by storage::ObjectStore). ---
    /// Per-request probability of a transient error outside burst windows.
    double storage_read_error_probability = 0;
    double storage_write_error_probability = 0;
    /// Fraction of injected storage errors surfaced as 503 SlowDown
    /// (kResourceExhausted); the rest are 500 InternalError (kIoError).
    /// Both are retriable by `storage::RetryClient`.
    double storage_slowdown_fraction = 0.5;
    /// When `storage_burst_interval` > 0, every interval opens with a
    /// `storage_burst_duration` window during which the error probability is
    /// `storage_burst_error_probability` instead of the baseline.
    double storage_burst_error_probability = 0;
    SimDuration storage_burst_duration = 0;
    SimDuration storage_burst_interval = 0;

    /// Network blips: probability of adding U(0, max) first-byte latency on
    /// the storage data path.
    double network_blip_probability = 0;
    SimDuration network_blip_max = 0;

    // --- Compute faults (consumed by LambdaPlatform / Ec2Fleet). ---
    /// Probability that an execution crashes mid-flight (handler error; the
    /// execution environment survives).
    double function_crash_probability = 0;
    /// Probability that the whole sandbox is killed (environment lost; on
    /// Lambda the sandbox is not returned to the warm pool).
    double sandbox_kill_probability = 0;
    /// Crash point: sampled uniformly in [0, crash_delay_max) after the
    /// handler starts.
    SimDuration crash_delay_max = Seconds(2);
    /// Functions never crashed (e.g. the query coordinator, which is the
    /// single point whose loss fails the whole query by design).
    std::vector<std::string> crash_exempt_functions;

    // --- Invoke-path faults (consumed by LambdaPlatform). ---
    /// Probability of adding U(0, max) latency to the invoke path.
    double invoke_delay_probability = 0;
    SimDuration invoke_delay_max = 0;
  };

  /// All-quiet profile; the default-constructed Profile injects nothing.
  static Profile Disabled() { return Profile{}; }
  /// Aggressive chaos-testing profile: 5% transient storage errors with
  /// periodic SlowDown storms, 15% function crashes + 5% sandbox kills,
  /// invoke delays and network blips.
  static Profile Chaos();

  struct Stats {
    int64_t storage_errors = 0;   ///< Total injected storage failures.
    int64_t slowdowns = 0;        ///< ... of which 503 SlowDown.
    int64_t internal_errors = 0;  ///< ... of which 500 InternalError.
    int64_t function_crashes = 0;
    int64_t sandbox_kills = 0;
    int64_t invoke_delays = 0;
    int64_t network_blips = 0;
  };

  /// Crash decision for one execution, sampled when the handler starts.
  struct CrashDecision {
    bool crash = false;
    bool kill_sandbox = false;
    SimDuration after = 0;
  };

  FaultInjector(SimEnvironment* env, const Profile& profile,
                uint64_t rng_stream = 7001);
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(FaultInjector);

  /// Storage admission hook: OK to serve the request, or the transient error
  /// to fail it with.
  [[nodiscard]] Status MaybeStorageError(bool is_write);

  /// Extra first-byte latency on the storage data path (0 = no blip).
  SimDuration MaybeNetworkBlip();

  /// Samples the crash plan for one execution of `function`.
  CrashDecision SampleCrash(const std::string& function);

  /// Extra invoke-path latency (0 = no spike).
  SimDuration MaybeInvokeDelay();

  /// True while inside a storage error-burst window.
  bool InStorageBurst() const;

  const Stats& stats() const { return stats_; }
  const Profile& profile() const { return profile_; }

 private:
  SimEnvironment* env_;
  Profile profile_;
  Rng rng_;
  Stats stats_;
};

}  // namespace skyrise::sim
