#include "sim/fault_injector.h"

namespace skyrise::sim {

FaultInjector::Profile FaultInjector::Chaos() {
  Profile p;
  p.storage_read_error_probability = 0.05;
  p.storage_write_error_probability = 0.05;
  p.storage_slowdown_fraction = 0.5;
  p.storage_burst_error_probability = 0.5;
  p.storage_burst_duration = Seconds(2);
  p.storage_burst_interval = Seconds(30);
  p.network_blip_probability = 0.05;
  p.network_blip_max = Millis(200);
  p.function_crash_probability = 0.15;
  p.sandbox_kill_probability = 0.05;
  p.crash_delay_max = Seconds(2);
  p.invoke_delay_probability = 0.1;
  p.invoke_delay_max = Millis(500);
  return p;
}

FaultInjector::FaultInjector(SimEnvironment* env, const Profile& profile,
                             uint64_t rng_stream)
    : env_(env), profile_(profile), rng_(env->ForkRng(rng_stream)) {}

bool FaultInjector::InStorageBurst() const {
  if (profile_.storage_burst_interval <= 0) return false;
  return env_->now() % profile_.storage_burst_interval <
         profile_.storage_burst_duration;
}

Status FaultInjector::MaybeStorageError(bool is_write) {
  const double base = is_write ? profile_.storage_write_error_probability
                               : profile_.storage_read_error_probability;
  const double p =
      InStorageBurst() ? profile_.storage_burst_error_probability : base;
  if (p <= 0 || !rng_.Bernoulli(p)) return Status::OK();
  ++stats_.storage_errors;
  if (rng_.Bernoulli(profile_.storage_slowdown_fraction)) {
    ++stats_.slowdowns;
    return Status::ResourceExhausted("503 SlowDown (injected)");
  }
  ++stats_.internal_errors;
  return Status::IoError("500 InternalError (injected)");
}

SimDuration FaultInjector::MaybeNetworkBlip() {
  if (profile_.network_blip_probability <= 0 ||
      !rng_.Bernoulli(profile_.network_blip_probability)) {
    return 0;
  }
  ++stats_.network_blips;
  return static_cast<SimDuration>(
      rng_.Uniform(0, static_cast<double>(profile_.network_blip_max)));
}

FaultInjector::CrashDecision FaultInjector::SampleCrash(
    const std::string& function) {
  CrashDecision decision;
  for (const auto& exempt : profile_.crash_exempt_functions) {
    if (exempt == function) return decision;
  }
  if (profile_.sandbox_kill_probability > 0 &&
      rng_.Bernoulli(profile_.sandbox_kill_probability)) {
    decision.crash = true;
    decision.kill_sandbox = true;
  } else if (profile_.function_crash_probability > 0 &&
             rng_.Bernoulli(profile_.function_crash_probability)) {
    decision.crash = true;
  }
  if (decision.crash) {
    decision.after = static_cast<SimDuration>(
        rng_.Uniform(0, static_cast<double>(profile_.crash_delay_max)));
    ++stats_.function_crashes;
    if (decision.kill_sandbox) ++stats_.sandbox_kills;
  }
  return decision;
}

SimDuration FaultInjector::MaybeInvokeDelay() {
  if (profile_.invoke_delay_probability <= 0 ||
      !rng_.Bernoulli(profile_.invoke_delay_probability)) {
    return 0;
  }
  ++stats_.invoke_delays;
  return static_cast<SimDuration>(
      rng_.Uniform(0, static_cast<double>(profile_.invoke_delay_max)));
}

}  // namespace skyrise::sim
