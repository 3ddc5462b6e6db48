#include "storage/retry_client.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace skyrise::storage {

RetryClient::RetryClient(sim::SimEnvironment* env, StorageService* service,
                         const Options& options, uint64_t rng_stream)
    : env_(env),
      service_(service),
      opt_(options),
      rng_(env->ForkRng(rng_stream)) {}

SimDuration RetryClient::TimeoutFor(int64_t expected_bytes) const {
  SimDuration timeout = opt_.request_timeout;
  if (opt_.timeout_per_mib > 0 && expected_bytes > 0) {
    timeout += static_cast<SimDuration>(
        opt_.timeout_per_mib * (static_cast<double>(expected_bytes) / kMiB));
  }
  return timeout;
}

SimDuration RetryClient::BackoffDelay(int attempt) {
  const double factor = std::pow(2.0, attempt);
  const SimDuration ceiling = std::min<SimDuration>(
      opt_.backoff_cap,
      static_cast<SimDuration>(opt_.backoff_base * factor));
  if (!opt_.full_jitter) return ceiling;
  return static_cast<SimDuration>(rng_.NextDouble() *
                                  static_cast<double>(ceiling));
}

std::string RetryClient::Track() const {
  return "storage/" + service_->service_name();
}

std::string RetryClient::MetricPrefix() const {
  return "storage." + service_->service_name();
}

Status RetryClient::AdmitAttempt(const ClientContext& ctx, int attempt,
                                 obs::SpanId req_span) {
  const SimTime now = env_->now();
  if (ctx.breaker != nullptr && !ctx.breaker->Allow(now)) {
    ++stats_.breaker_rejections;
    ++stats_.permanent_failures;
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add(MetricPrefix() + ".breaker_rejections");
      ctx.metrics->Add(MetricPrefix() + ".permanent_failures");
    }
    if (ctx.tracer != nullptr) {
      ctx.tracer->SetArg(req_span, "shed", Json("breaker_open"));
      ctx.tracer->SetArg(req_span, "attempts", Json(attempt));
    }
    return Status::ResourceExhausted(StrFormat(
        "%s circuit open; retry after %lld us",
        ctx.breaker->options().name.c_str(),
        static_cast<long long>(ctx.breaker->RetryAfter(now))));
  }
  if (ctx.deadline.Expired(now)) {
    ++stats_.deadline_rejections;
    ++stats_.permanent_failures;
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add(MetricPrefix() + ".deadline_rejections");
      ctx.metrics->Add(MetricPrefix() + ".permanent_failures");
    }
    if (ctx.tracer != nullptr) {
      ctx.tracer->SetArg(req_span, "shed", Json("deadline"));
      ctx.tracer->SetArg(req_span, "attempts", Json(attempt));
    }
    return Status::DeadlineExceeded("deadline expired before storage attempt");
  }
  return Status::OK();
}

/// A ranged GET (length -1 reads to the end of the object).
struct RetryClient::GetRequest {
  using Outcome = Result<Blob>;
  using Callback = GetCallback;
  std::string key;
  int64_t offset = 0;
  int64_t length = -1;

  std::string SpanName() const { return "get " + key; }
  void Annotate(obs::Tracer* tracer, obs::SpanId span) const {
    tracer->SetArg(span, "key", Json(key));
    tracer->SetArg(span, "offset", Json(offset));
    tracer->SetArg(span, "length", Json(length));
  }
  int64_t ExpectedBytes() const { return length >= 0 ? length : 0; }
  void Issue(StorageService* service, const ClientContext& ctx,
             Callback callback) const {
    service->GetRange(key, offset, length, ctx, std::move(callback));
  }
  static Status ErrorOf(Outcome outcome) { return outcome.status(); }
};

/// A full-object PUT.
struct RetryClient::PutRequest {
  using Outcome = Status;
  using Callback = PutCallback;
  std::string key;
  Blob data;

  std::string SpanName() const { return "put " + key; }
  void Annotate(obs::Tracer* tracer, obs::SpanId span) const {
    tracer->SetArg(span, "key", Json(key));
    tracer->SetArg(span, "bytes", Json(data.size()));
  }
  int64_t ExpectedBytes() const { return data.size(); }
  void Issue(StorageService* service, const ClientContext& ctx,
             Callback callback) const {
    service->Put(key, data, ctx, std::move(callback));
  }
  static Status ErrorOf(Outcome outcome) { return outcome; }
};

/// One request across all of its attempts. Attempts run one at a time (the
/// next starts only after the current one settled), so the attempt fields
/// describe the attempt in flight. The attempt's response and its timeout
/// race to claim it; the loser, or a response that arrives after a newer
/// attempt started, becomes a no-op.
template <typename Request>
struct RetryClient::Call {
  Request request;
  ClientContext ctx;
  typename Request::Callback callback;
  obs::SpanId span = obs::kNoSpan;  ///< The request span.
  SimTime start = 0;

  int attempt = 0;
  obs::SpanId attempt_span = obs::kNoSpan;
  SimTime attempt_start = 0;
  sim::EventId timeout_event = sim::kInvalidEventId;
  bool settled = false;

  bool Claim(int n) {
    if (n != attempt || settled) return false;
    settled = true;
    return true;
  }
};

void RetryClient::Get(const std::string& key, const ClientContext& ctx,
                      GetCallback callback) {
  GetRange(key, 0, -1, ctx, std::move(callback));
}

void RetryClient::GetRange(const std::string& key, int64_t offset,
                           int64_t length, const ClientContext& ctx,
                           GetCallback callback) {
  Send(GetRequest{key, offset, length}, ctx, std::move(callback));
}

void RetryClient::Put(const std::string& key, Blob data,
                      const ClientContext& ctx, PutCallback callback) {
  Send(PutRequest{key, std::move(data)}, ctx, std::move(callback));
}

template <typename Request>
void RetryClient::Send(Request request, const ClientContext& ctx,
                       typename Request::Callback callback) {
  auto call = std::make_shared<Call<Request>>();
  if (ctx.tracer != nullptr) {
    call->span =
        ctx.tracer->Begin(Track(), request.SpanName(), "storage", ctx.span);
    request.Annotate(ctx.tracer, call->span);
  }
  call->request = std::move(request);
  call->ctx = ctx;
  call->callback = std::move(callback);
  call->start = env_->now();
  Attempt(call, 0);
}

template <typename Request>
void RetryClient::Deliver(const CallPtr<Request>& call,
                          typename Request::Outcome outcome) {
  const ClientContext& ctx = call->ctx;
  if (ctx.metrics != nullptr) {
    ctx.metrics->Record(MetricPrefix() + ".request_ms",
                        ToMillis(env_->now() - call->start));
  }
  if (ctx.tracer != nullptr) {
    ctx.tracer->EndWith(call->span, outcome.ok() ? "ok" : "error");
  }
  call->callback(std::move(outcome));
}

void RetryClient::EndAttempt(const ClientContext& ctx, obs::SpanId span,
                             SimTime start, const char* outcome) {
  if (ctx.tracer != nullptr) ctx.tracer->EndWith(span, outcome);
  if (ctx.metrics != nullptr) {
    ctx.metrics->Record(MetricPrefix() + ".attempt_ms",
                        ToMillis(env_->now() - start));
  }
}

template <typename Request>
void RetryClient::Attempt(const CallPtr<Request>& call, int attempt) {
  const ClientContext& ctx = call->ctx;
  if (Status admit = AdmitAttempt(ctx, attempt, call->span); !admit.ok()) {
    // Shed before any work is issued; delivered asynchronously so callers
    // see the same callback discipline as a served request.
    env_->Schedule(0, [this, call, admit] { Deliver(call, admit); });
    return;
  }
  ++stats_.attempts;
  if (ctx.metrics != nullptr) ctx.metrics->Add(MetricPrefix() + ".attempts");
  call->attempt = attempt;
  call->settled = false;
  call->attempt_start = env_->now();
  ClientContext attempt_ctx = ctx;
  if (ctx.tracer != nullptr) {
    call->attempt_span = ctx.tracer->Begin(
        Track(), StrFormat("attempt %d", attempt + 1), "storage", call->span);
    attempt_ctx.span = call->attempt_span;
  }

  const SimDuration timeout = ctx.deadline.Clamp(
      env_->now(),
      static_cast<SimDuration>(
          static_cast<double>(TimeoutFor(call->request.ExpectedBytes())) *
          std::pow(opt_.timeout_growth, attempt)));
  call->timeout_event = env_->Schedule(timeout, [this, call, attempt] {
    if (!call->Claim(attempt)) return;
    const ClientContext& ctx = call->ctx;
    ++stats_.timeouts;
    if (ctx.metrics != nullptr) ctx.metrics->Add(MetricPrefix() + ".timeouts");
    if (ctx.breaker != nullptr) ctx.breaker->RecordFailure(env_->now());
    EndAttempt(ctx, call->attempt_span, call->attempt_start, "timeout");
    RetryOrFail(call, Status::DeadlineExceeded("request timed out"));
  });

  call->request.Issue(
      service_, attempt_ctx,
      [this, call, attempt](typename Request::Outcome outcome) {
        if (!call->Claim(attempt)) return;  // Timed out; stale response.
        const ClientContext& ctx = call->ctx;
        env_->Cancel(call->timeout_event);
        if (outcome.ok()) {
          ++stats_.successes;
          if (ctx.metrics != nullptr) {
            ctx.metrics->Add(MetricPrefix() + ".successes");
          }
          if (ctx.breaker != nullptr) ctx.breaker->RecordSuccess(env_->now());
          if (ctx.retry_budget != nullptr) ctx.retry_budget->RecordSuccess();
          EndAttempt(ctx, call->attempt_span, call->attempt_start, "ok");
          if (ctx.tracer != nullptr) {
            ctx.tracer->SetArg(call->span, "attempts", Json(attempt + 1));
          }
          Deliver(call, std::move(outcome));
          return;
        }
        Status st = Request::ErrorOf(std::move(outcome));
        if (st.IsResourceExhausted()) {
          ++stats_.throttles;
          if (ctx.metrics != nullptr) {
            ctx.metrics->Add(MetricPrefix() + ".throttles");
          }
        }
        if (st.IsRetriable()) {
          // Throttles (503 SlowDown), timeouts, and transient I/O errors
          // (500 InternalError) are worth another attempt.
          if (ctx.breaker != nullptr) ctx.breaker->RecordFailure(env_->now());
          EndAttempt(ctx, call->attempt_span, call->attempt_start,
                     st.IsResourceExhausted() ? "throttle" : "error");
          RetryOrFail(call, std::move(st));
        } else {
          // NotFound, InvalidArgument, etc. will not heal with time: fail
          // fast instead of burning the retry budget.
          ++stats_.fail_fasts;
          ++stats_.permanent_failures;
          if (ctx.metrics != nullptr) {
            ctx.metrics->Add(MetricPrefix() + ".fail_fasts");
            ctx.metrics->Add(MetricPrefix() + ".permanent_failures");
          }
          EndAttempt(ctx, call->attempt_span, call->attempt_start,
                     "fail_fast");
          if (ctx.tracer != nullptr) {
            ctx.tracer->SetArg(call->span, "attempts", Json(attempt + 1));
          }
          Deliver(call, std::move(st));
        }
      });
}

template <typename Request>
void RetryClient::RetryOrFail(const CallPtr<Request>& call, Status error) {
  const ClientContext& ctx = call->ctx;
  const int attempt = call->attempt;
  auto give_up = [&](Status fin) {
    ++stats_.permanent_failures;
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add(MetricPrefix() + ".permanent_failures");
    }
    if (ctx.tracer != nullptr) {
      ctx.tracer->SetArg(call->span, "attempts", Json(attempt + 1));
    }
    Deliver(call, std::move(fin));
  };
  if (attempt + 1 >= opt_.max_attempts) {
    give_up(std::move(error));
    return;
  }
  const SimTime now = env_->now();
  if (ctx.deadline.Expired(now)) {
    ++stats_.deadline_rejections;
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add(MetricPrefix() + ".deadline_rejections");
    }
    give_up(Status::DeadlineExceeded(
        StrFormat("deadline exhausted after %d attempts: ", attempt + 1) +
        error.message()));
    return;
  }
  if (ctx.retry_budget != nullptr && !ctx.retry_budget->TryAcquire()) {
    ++stats_.budget_denials;
    if (ctx.metrics != nullptr) {
      ctx.metrics->Add(MetricPrefix() + ".budget_denials");
    }
    give_up(Status::ResourceExhausted(
        StrFormat("retry budget exhausted after %d attempts: ", attempt + 1) +
        error.message()));
    return;
  }
  if (ctx.metrics != nullptr) ctx.metrics->Add(MetricPrefix() + ".retries");
  obs::SpanId backoff = obs::kNoSpan;
  if (ctx.tracer != nullptr) {
    backoff = ctx.tracer->Begin(Track(), "backoff", "storage", call->span);
  }
  const SimDuration wait = ctx.deadline.Clamp(now, BackoffDelay(attempt));
  env_->Schedule(wait, [this, call, attempt, backoff] {
    if (call->ctx.tracer != nullptr) call->ctx.tracer->End(backoff);
    Attempt(call, attempt + 1);
  });
}

}  // namespace skyrise::storage
