#include "faas/execution.h"

#include <algorithm>

#include "common/deadline.h"
#include "common/string_util.h"

namespace skyrise::faas {

namespace {

/// One execution in flight: the state its handler, timeout and crash race
/// over. The first to Claim() settles; the others no-op.
struct Execution {
  ExecutionSite site;
  ResponseCallback callback;
  ReleaseHook release;
  std::string function;
  double memory_gib = 0;
  obs::SpanId span = obs::kNoSpan;
  SimTime start = 0;
  sim::EventId timeout_event = sim::kInvalidEventId;
  sim::EventId crash_event = sim::kInvalidEventId;
  bool settled = false;

  bool Claim() {
    if (settled) return false;
    settled = true;
    return true;
  }

  std::string Metric(const char* name) const {
    return std::string(site.track) + name;
  }

  void Count(int64_t* counter, const char* metric) {
    ++*counter;
    if (site.metrics != nullptr) site.metrics->Add(Metric(metric));
  }

  /// Shared cleanup. The billed cost is attributed to the execution span;
  /// after an abnormal settle the handler's child spans (on other tracks)
  /// can outlive this one.
  void Settle(bool keep_sandbox, const char* outcome) {
    site.env->Cancel(timeout_event);
    site.env->Cancel(crash_event);
    const SimDuration duration = site.env->now() - start;
    double usd = 0;
    if (site.meter != nullptr) {
      usd = site.meter->RecordLambdaInvocation(
          memory_gib, std::max<SimDuration>(duration, 1));
    }
    if (site.tracer != nullptr) {
      if (site.meter != nullptr) site.tracer->AddCost(span, usd);
      site.tracer->EndWith(span, outcome);
    }
    if (site.metrics != nullptr) {
      site.metrics->Record(Metric(".exec_ms"), ToMillis(duration));
    }
    release(keep_sandbox);
  }
};

}  // namespace

void RunExecution(const ExecutionSite& site,
                  const FunctionRegistry::Entry& entry, net::Nic* nic,
                  Json payload, bool cold, obs::SpanId invoke_span,
                  ResponseCallback callback, ReleaseHook release) {
  const Deadline deadline = Deadline::At(payload.GetInt("deadline_us", 0));
  auto ctx = std::make_shared<FunctionContext>(
      site.env, nic, site.fabric, std::move(payload), cold, entry.config);
  auto exec = std::make_shared<Execution>();
  exec->site = site;
  exec->callback = std::move(callback);
  exec->release = std::move(release);
  exec->function = entry.config.name;
  exec->memory_gib = entry.config.memory_gib();
  exec->start = site.env->now();
  if (site.tracer != nullptr) {
    exec->span = site.tracer->Begin(site.track, "exec " + exec->function,
                                    "faas", invoke_span);
    site.tracer->SetArg(exec->span, "cold", Json(cold));
    site.tracer->SetArg(exec->span, "memory_mib",
                        Json(entry.config.memory_mib));
  }
  ctx->set_observability(site.tracer, exec->span, site.metrics);
  ctx->set_on_finish([exec](Json response) {
    if (!exec->Claim()) return;
    exec->Settle(/*keep_sandbox=*/true, "ok");
    exec->callback(std::move(response));
  });
  ctx->set_on_finish_error([exec](Status status) {
    if (!exec->Claim()) return;
    exec->Count(exec->site.errors, ".errors");
    exec->Settle(/*keep_sandbox=*/true, "error");
    exec->callback(std::move(status));
  });
  SimDuration timeout = entry.config.timeout;
  bool deadline_clamped = false;
  if (deadline.bounded()) {
    const SimDuration remaining =
        std::max<SimDuration>(1, deadline.Remaining(site.env->now()));
    if (timeout <= 0 || remaining < timeout) {
      timeout = remaining;
      deadline_clamped = true;
    }
  }
  if (timeout > 0) {
    exec->timeout_event = site.env->Schedule(timeout, [exec,
                                                        deadline_clamped] {
      if (!exec->Claim()) return;
      exec->Count(exec->site.timeouts, ".timeouts");
      exec->Count(exec->site.errors, ".errors");
      if (deadline_clamped && exec->site.metrics != nullptr) {
        exec->site.metrics->Add(exec->Metric(".deadline_kills"));
      }
      exec->Settle(/*keep_sandbox=*/false, "timeout");
      exec->callback(Status::DeadlineExceeded(
          (deadline_clamped ? "Query deadline exceeded in: "
                            : "Task timed out: ") +
          exec->function));
    });
  }
  if (site.fault_injector != nullptr) {
    const auto crash = site.fault_injector->SampleCrash(exec->function);
    if (crash.crash) {
      exec->crash_event = site.env->Schedule(
          crash.after, [exec, kill = crash.kill_sandbox] {
            if (!exec->Claim()) return;
            exec->Count(exec->site.crashes, ".crashes");
            exec->Count(exec->site.errors, ".errors");
            exec->Settle(/*keep_sandbox=*/!kill, "crash");
            exec->callback(Status::IoError(
                StrFormat("%s crashed (injected): %s", exec->site.crash_noun,
                          exec->function.c_str())));
          });
    }
  }
  entry.handler(ctx);
}

}  // namespace skyrise::faas
