#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "faas/function.h"
#include "probe.h"
#include "storage/storage_service.h"

/// \file seams.h
/// Decorators the traced run installs at the engine's public seams. Each
/// forwards every call unchanged and only opens spans and bumps host-side
/// counters, so the simulation (and its digest) is identical to the
/// untraced run's.

namespace hostbench {

/// Counters the decorators keep. Bytes and outcomes are read from the
/// values crossing the seam; nothing is read from inside a layer.
struct SeamCounters {
  int64_t storage_get_calls = 0;
  int64_t storage_put_calls = 0;
  int64_t storage_get_bytes = 0;
  int64_t storage_put_bytes = 0;
  int64_t storage_ok = 0;
  int64_t storage_errors = 0;
  int64_t faas_invokes = 0;
  int64_t faas_errors = 0;
  int64_t faas_payload_bytes = 0;
  int64_t coordinator_calls = 0;
  int64_t worker_calls = 0;
  int64_t invoker_calls = 0;
  /// Worker retries plus speculative launches, from coordinator responses.
  int64_t wasted_worker_attempts = 0;
};

/// StorageService decorator installed as `table_store` / `shuffle_store`.
class StorageProbe : public skyrise::storage::StorageService {
 public:
  StorageProbe(skyrise::storage::StorageService* inner, SpanRecorder* spans,
               SeamCounters* counters)
      : inner_(inner), spans_(spans), counters_(counters) {}

  const std::string& service_name() const override {
    return inner_->service_name();
  }
  void Get(const std::string& key, const skyrise::storage::ClientContext& ctx,
           skyrise::storage::GetCallback callback) override;
  void GetRange(const std::string& key, int64_t offset, int64_t length,
                const skyrise::storage::ClientContext& ctx,
                skyrise::storage::GetCallback callback) override;
  void Put(const std::string& key, skyrise::storage::Blob data,
           const skyrise::storage::ClientContext& ctx,
           skyrise::storage::PutCallback callback) override;

  [[nodiscard]] skyrise::Status Insert(const std::string& key,
                                       skyrise::storage::Blob data) override {
    return inner_->Insert(key, std::move(data));
  }
  [[nodiscard]] skyrise::Result<skyrise::storage::Blob> Peek(
      const std::string& key) const override {
    return inner_->Peek(key);
  }
  [[nodiscard]] skyrise::Status Delete(const std::string& key) override {
    return inner_->Delete(key);
  }
  std::vector<skyrise::storage::ObjectInfo> List(
      const std::string& prefix) const override {
    return inner_->List(prefix);
  }
  bool Contains(const std::string& key) const override {
    return inner_->Contains(key);
  }

 private:
  skyrise::storage::GetCallback WrapGet(skyrise::storage::GetCallback callback);

  skyrise::storage::StorageService* inner_;
  SpanRecorder* spans_;
  SeamCounters* counters_;
};

/// ComputePlatform decorator handed to QueryEngine::Run / ServingFrontend.
class FaasProbe : public skyrise::faas::ComputePlatform {
 public:
  FaasProbe(skyrise::faas::ComputePlatform* inner, SpanRecorder* spans,
            SeamCounters* counters)
      : inner_(inner), spans_(spans), counters_(counters) {}

  void Invoke(const std::string& function, skyrise::Json payload,
              skyrise::faas::ResponseCallback callback) override;
  const std::string& platform_name() const override {
    return inner_->platform_name();
  }
  void set_observer(skyrise::obs::Tracer* tracer,
                    skyrise::obs::MetricsRegistry* metrics) override {
    inner_->set_observer(tracer, metrics);
  }

 private:
  skyrise::faas::ComputePlatform* inner_;
  SpanRecorder* spans_;
  SeamCounters* counters_;
};

/// Deploys the engine into a staging registry and re-registers each of its
/// handlers in `registry` wrapped in an engine-layer span.
[[nodiscard]] skyrise::Status DeployProbed(
    skyrise::engine::QueryEngine* engine, skyrise::faas::FunctionRegistry* registry,
    SpanRecorder* spans, SeamCounters* counters);

}  // namespace hostbench
