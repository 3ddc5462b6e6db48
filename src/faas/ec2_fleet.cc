#include "faas/ec2_fleet.h"

#include "faas/execution.h"

namespace skyrise::faas {

Ec2Fleet::Ec2Fleet(sim::SimEnvironment* env, net::FabricDriver* fabric,
                   FunctionRegistry* registry, const Options& options)
    : env_(env),
      fabric_(fabric),
      registry_(registry),
      opt_(options),
      rng_(env->ForkRng(options.rng_stream)) {
  SKYRISE_CHECK(opt_.instance_count >= 1 && opt_.slots_per_instance >= 1);
  auto nic_options = net::MakeEc2NicOptions(opt_.instance_type);
  SKYRISE_CHECK_OK(nic_options.status());
  for (int i = 0; i < opt_.instance_count; ++i) {
    nics_.push_back(std::make_unique<net::Ec2Nic>(*nic_options));
  }
}

void Ec2Fleet::Start(std::function<void()> on_ready) {
  SKYRISE_CHECK(!running_);
  if (tracer_ != nullptr) {
    fleet_span_ = tracer_->Begin("ec2", "fleet " + opt_.instance_type, "faas");
    tracer_->SetArg(fleet_span_, "instances", Json(opt_.instance_count));
    tracer_->SetArg(fleet_span_, "slots", Json(total_slots()));
  }
  const SimDuration boot =
      opt_.pre_provisioned
          ? 0
          : static_cast<SimDuration>(
                static_cast<double>(opt_.provision_time) *
                rng_.Lognormal(0.0, 0.2));
  env_->Schedule(boot, [this, on_ready = std::move(on_ready)] {
    running_ = true;
    started_at_ = env_->now();
    free_slots_ = total_slots();
    if (on_ready) on_ready();
    MaybeDispatch();
  });
}

void Ec2Fleet::Stop() {
  if (!running_) return;
  running_ = false;
  const double usd = meter_.RecordEc2Usage(
      opt_.instance_type, (env_->now() - started_at_) * opt_.instance_count,
      opt_.reserved_pricing);
  if (tracer_ != nullptr) {
    tracer_->AddCost(fleet_span_, usd);
    tracer_->End(fleet_span_);
    fleet_span_ = obs::kNoSpan;
  }
}

void Ec2Fleet::Invoke(const std::string& function, Json payload,
                      ResponseCallback callback) {
  Pending pending;
  pending.function = function;
  pending.enqueued_at = env_->now();
  if (tracer_ != nullptr) {
    pending.invoke_span =
        tracer_->Begin("ec2", "invoke " + function, "faas",
                       payload.GetInt("trace_parent", obs::kNoSpan));
    pending.queued_span =
        tracer_->Begin("ec2", "queued", "faas", pending.invoke_span);
    auto inner = std::make_shared<ResponseCallback>(std::move(callback));
    const obs::SpanId invoke_span = pending.invoke_span;
    callback = [this, invoke_span, inner](Result<Json> result) {
      const char* outcome = "ok";
      if (!result.ok()) {
        outcome = result.status().IsDeadlineExceeded() ? "timeout" : "error";
      }
      tracer_->EndWith(invoke_span, outcome);
      (*inner)(std::move(result));
    };
  }
  pending.payload = std::move(payload);
  pending.callback = std::move(callback);
  queue_.push_back(std::move(pending));
  MaybeDispatch();
}

void Ec2Fleet::MaybeDispatch() {
  while (running_ && free_slots_ > 0 && !queue_.empty()) {
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    --free_slots_;
    Dispatch(std::move(pending));
  }
}

void Ec2Fleet::Dispatch(Pending pending) {
  if (tracer_ != nullptr) tracer_->End(pending.queued_span);
  if (metrics_ != nullptr) {
    metrics_->Record("ec2.queue_wait_ms",
                     ToMillis(env_->now() - pending.enqueued_at));
  }
  auto entry = registry_->Find(pending.function);
  if (!entry.ok()) {
    ++free_slots_;
    pending.callback(entry.status());
    return;
  }
  // Shim dispatch is local: sub-millisecond, no coldstart.
  const int instance = next_slot_rr_++ % static_cast<int>(nics_.size());
  env_->Schedule(Micros(300), [this, entry = std::move(entry).ValueUnsafe(),
                               instance,
                               pending = std::move(pending)]() mutable {
    ++stats_.invocations;
    if (metrics_ != nullptr) metrics_->Add("ec2.invocations");
    RunExecution({.track = "ec2",
                  .crash_noun = "worker",
                  .env = env_,
                  .fabric = fabric_,
                  .fault_injector = fault_injector_,
                  .tracer = tracer_,
                  .metrics = metrics_,
                  .meter = nullptr,
                  .errors = &stats_.errors,
                  .timeouts = &stats_.timeouts,
                  .crashes = &stats_.crashes},
                 entry, nics_[static_cast<size_t>(instance)].get(),
                 std::move(pending.payload), /*cold=*/false,
                 pending.invoke_span, std::move(pending.callback),
                 [this](bool /*keep_sandbox*/) {
                   ++free_slots_;
                   MaybeDispatch();
                 });
  });
}

}  // namespace skyrise::faas
