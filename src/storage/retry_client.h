#pragma once

#include <memory>

#include "sim/environment.h"
#include "storage/storage_service.h"

/// \file retry_client.h
/// SDK-style storage client with request timeouts and exponential backoff
/// with full jitter (the Fig. 11 client configuration: "eager but not
/// aggressive"). Requests that repeatedly fail back off exponentially — the
/// mechanism behind the straggler-induced IOPS drops in Section 4.4.1.
///
/// Overload robustness (all opt-in via ClientContext): per-attempt timeouts
/// and backoff waits are clamped to the remaining `ctx.deadline` and the
/// request fails fast with DeadlineExceeded once it expires (cumulative
/// backoff can no longer outlive the caller); every retry draws a token
/// from `ctx.retry_budget` when one is attached (successes refund a
/// fraction); and an open `ctx.breaker` sheds attempts with a typed
/// ResourceExhausted carrying the retry-after hint.

namespace skyrise::storage {

class RetryClient {
 public:
  struct Options {
    SimDuration request_timeout = Millis(200);
    int max_attempts = 8;
    SimDuration backoff_base = Millis(25);
    SimDuration backoff_cap = Seconds(20);
    bool full_jitter = true;
    /// Timeout scaling for large payloads: extra allowance per MiB
    /// transferred (the engine's size-based straggler timeout); 0 disables.
    SimDuration timeout_per_mib = 0;
    /// Timeout growth per retry attempt, so retries of genuinely slow (e.g.,
    /// congestion-bound) transfers eventually succeed instead of looping.
    double timeout_growth = 1.5;
  };

  struct Stats {
    int64_t attempts = 0;
    int64_t throttles = 0;
    int64_t timeouts = 0;
    int64_t successes = 0;
    int64_t permanent_failures = 0;
    /// Non-retriable errors (NotFound, InvalidArgument, Internal, ...)
    /// surfaced immediately without consuming the retry budget. Also
    /// counted in `permanent_failures`.
    int64_t fail_fasts = 0;
    /// Requests abandoned because the propagated deadline expired (before
    /// an attempt or between attempts). Counted in `permanent_failures`.
    int64_t deadline_rejections = 0;
    /// Retries refused because the shared per-query RetryBudget was empty.
    int64_t budget_denials = 0;
    /// Attempts shed by an open circuit breaker.
    int64_t breaker_rejections = 0;
  };

  RetryClient(sim::SimEnvironment* env, StorageService* service,
              const Options& options, uint64_t rng_stream = 2001);

  /// Retrying full-object read. The callback receives the final outcome
  /// after all attempts. When `ctx.tracer` is set, the request opens a span
  /// on track "storage/<service>" under `ctx.span`, with one child span per
  /// attempt and per backoff wait; the storage service attributes request
  /// costs and fault/throttle markers to the active attempt span.
  void Get(const std::string& key, const ClientContext& ctx,
           GetCallback callback);
  void GetRange(const std::string& key, int64_t offset, int64_t length,
                const ClientContext& ctx, GetCallback callback);
  void Put(const std::string& key, Blob data, const ClientContext& ctx,
           PutCallback callback);

  const Stats& stats() const { return stats_; }
  StorageService* service() { return service_; }
  const Options& options() const { return opt_; }

 private:
  SimDuration TimeoutFor(int64_t expected_bytes) const;
  SimDuration BackoffDelay(int attempt);
  std::string Track() const;
  std::string MetricPrefix() const;

  /// Pre-attempt admission: OK to proceed, or the typed shed error (open
  /// breaker -> ResourceExhausted with a retry-after hint, expired deadline
  /// -> DeadlineExceeded). Stats/metrics for the shed are recorded here.
  [[nodiscard]] Status AdmitAttempt(const ClientContext& ctx, int attempt,
                                    obs::SpanId req_span);

  // The request kinds (a ranged GET, a PUT) and the state of one request
  // across its attempts; defined in retry_client.cc.
  struct GetRequest;
  struct PutRequest;
  template <typename Request>
  struct Call;
  template <typename Request>
  using CallPtr = std::shared_ptr<Call<Request>>;

  /// The request wrapper: opens the request span and starts attempt 0.
  template <typename Request>
  void Send(Request request, const ClientContext& ctx,
            typename Request::Callback callback);
  /// The attempt loop: admits, times and issues attempt `attempt`, then
  /// classifies its outcome into success, retry after backoff, or failure.
  template <typename Request>
  void Attempt(const CallPtr<Request>& call, int attempt);
  template <typename Request>
  void RetryOrFail(const CallPtr<Request>& call, Status error);
  /// Closes an attempt span with `outcome` and records its latency.
  void EndAttempt(const ClientContext& ctx, obs::SpanId span, SimTime start,
                  const char* outcome);
  /// Closes the request span and hands the final outcome to the caller.
  template <typename Request>
  void Deliver(const CallPtr<Request>& call,
               typename Request::Outcome outcome);

  sim::SimEnvironment* env_;
  StorageService* service_;
  Options opt_;
  Rng rng_;
  Stats stats_;
};

}  // namespace skyrise::storage
