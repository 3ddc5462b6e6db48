#pragma once

#include <functional>

#include "faas/function.h"
#include "pricing/cost_meter.h"
#include "sim/fault_injector.h"

/// \file execution.h
/// The execution race both platforms run (private to src/faas/): Lambda and
/// the EC2 shim differ only in the ExecutionSite and release hook they pass.

namespace skyrise::faas {

/// What one platform contributes to an execution race (RunExecution): its
/// names, its wiring and its counters. Both platforms run the same race;
/// only these fields and the release hook differ.
struct ExecutionSite {
  const char* track;       ///< Span track and metric prefix ("lambda", "ec2").
  const char* crash_noun;  ///< Crash message subject ("function", "worker").
  sim::SimEnvironment* env;
  net::FabricDriver* fabric;
  sim::FaultInjector* fault_injector;  ///< May be null.
  obs::Tracer* tracer;                 ///< May be null.
  obs::MetricsRegistry* metrics;       ///< May be null.
  /// Bills each execution by duration and memory (Lambda). Null where the
  /// platform bills capacity instead (the EC2 fleet bills its lifetime).
  pricing::CostMeter* meter;
  int64_t* errors;
  int64_t* timeouts;
  int64_t* crashes;
};

/// Called once when an execution settles, after its span closed, to free
/// the slot it ran in. `keep_sandbox` is false after a timeout or a
/// sandbox-killing crash, which tear the execution environment down.
using ReleaseHook = std::function<void(bool keep_sandbox)>;

/// Runs `entry`'s handler once on `nic` and settles the execution exactly
/// once. The handler's Finish/FinishError, the enforced timeout and an
/// injected crash race through one gate; whichever comes first settles, the
/// others no-op. The timeout is FunctionConfig::timeout, clamped to the
/// payload's "deadline_us" (absolute sim time) so an execution never
/// outlives the query that invoked it. Settling closes the "exec <fn>" span
/// opened under `invoke_span`, records "<track>.exec_ms", calls `release`,
/// then answers `callback`. The handler may keep running as a zombie after a
/// timeout or crash; its late Finish is ignored.
void RunExecution(const ExecutionSite& site,
                  const FunctionRegistry::Entry& entry, net::Nic* nic,
                  Json payload, bool cold, obs::SpanId invoke_span,
                  ResponseCallback callback, ReleaseHook release);

}  // namespace skyrise::faas
