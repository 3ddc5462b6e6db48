#include "seams.h"

#include <utility>

using namespace skyrise;

namespace hostbench {

storage::GetCallback StorageProbe::WrapGet(storage::GetCallback callback) {
  return [this, callback = std::move(callback)](Result<storage::Blob> result) {
    ScopedSpan span(spans_, Seam::kStorageCallback);
    if (result.ok()) {
      ++counters_->storage_ok;
      counters_->storage_get_bytes += result->size();
    } else {
      ++counters_->storage_errors;
    }
    callback(std::move(result));
  };
}

void StorageProbe::Get(const std::string& key,
                       const storage::ClientContext& ctx,
                       storage::GetCallback callback) {
  ScopedSpan span(spans_, Seam::kStorageGet);
  ++counters_->storage_get_calls;
  inner_->Get(key, ctx, WrapGet(std::move(callback)));
}

void StorageProbe::GetRange(const std::string& key, int64_t offset,
                            int64_t length, const storage::ClientContext& ctx,
                            storage::GetCallback callback) {
  ScopedSpan span(spans_, Seam::kStorageGet);
  ++counters_->storage_get_calls;
  inner_->GetRange(key, offset, length, ctx, WrapGet(std::move(callback)));
}

void StorageProbe::Put(const std::string& key, storage::Blob data,
                       const storage::ClientContext& ctx,
                       storage::PutCallback callback) {
  ScopedSpan span(spans_, Seam::kStoragePut);
  ++counters_->storage_put_calls;
  counters_->storage_put_bytes += data.size();
  inner_->Put(key, std::move(data), ctx,
              [this, callback = std::move(callback)](Status status) {
                ScopedSpan span(spans_, Seam::kStorageCallback);
                ++(status.ok() ? counters_->storage_ok
                               : counters_->storage_errors);
                callback(std::move(status));
              });
}

void FaasProbe::Invoke(const std::string& function, Json payload,
                       faas::ResponseCallback callback) {
  {
    // Dumping is measurement work, not the platform's: its own seam keeps it
    // out of both faas self time and the residual.
    ScopedSpan span(spans_, Seam::kBench);
    counters_->faas_payload_bytes += static_cast<int64_t>(payload.Dump().size());
  }
  ScopedSpan span(spans_, Seam::kFaasInvoke);
  ++counters_->faas_invokes;
  const bool coordinator = function == engine::kCoordinatorFunction;
  inner_->Invoke(
      function, std::move(payload),
      [this, coordinator, callback = std::move(callback)](Result<Json> result) {
        ScopedSpan span(spans_, Seam::kFaasResponse);
        if (!result.ok()) {
          ++counters_->faas_errors;
        } else if (coordinator) {
          counters_->wasted_worker_attempts +=
              result->GetInt("worker_retries") +
              result->GetInt("speculative_launches");
        }
        callback(std::move(result));
      });
}

Status DeployProbed(engine::QueryEngine* engine,
                    faas::FunctionRegistry* registry, SpanRecorder* spans,
                    SeamCounters* counters) {
  faas::FunctionRegistry staging;
  SKYRISE_RETURN_IF_ERROR(engine->Deploy(&staging));
  struct Target {
    const char* function;
    Seam seam;
    int64_t* calls;
  };
  const Target targets[] = {
      {engine::kCoordinatorFunction, Seam::kCoordinator,
       &counters->coordinator_calls},
      {engine::kWorkerFunction, Seam::kWorker, &counters->worker_calls},
      {engine::kInvokerFunction, Seam::kInvoker, &counters->invoker_calls},
  };
  for (const Target& target : targets) {
    faas::FunctionRegistry::Entry entry;
    SKYRISE_ASSIGN_OR_RETURN(entry, staging.Find(target.function));
    SKYRISE_RETURN_IF_ERROR(registry->Register(
        entry.config,
        [spans, seam = target.seam, calls = target.calls,
         handler = std::move(entry.handler)](
            const std::shared_ptr<faas::FunctionContext>& ctx) {
          ScopedSpan span(spans, seam);
          ++*calls;
          handler(ctx);
        }));
  }
  return Status::OK();
}

}  // namespace hostbench
