#pragma once

#include "engine/context.h"

/// \file worker.h
/// The Skyrise query worker function. A worker receives one pipeline
/// fragment, loads its inputs from shared storage (footer fetch, row-group
/// pruning, chunked ranged column reads with straggler re-triggering, or
/// shuffle-partition reads), executes the vectorized operator chain, writes
/// partitioned outputs back to storage, and reports per-phase timings.

namespace skyrise::engine {

/// Builds the worker handler bound to `context`. Register under
/// kWorkerFunction on both platforms.
faas::FunctionHandler MakeWorkerHandler(EngineContext* context);

/// The one place that decides where a COF file's footer comes from: the
/// synthetic `catalog` entry for `key` when `tail` carries no real bytes,
/// else the footer parsed out of `tail`, the file's bytes from `tail_offset`
/// to its end at `file_size`.
[[nodiscard]] Result<format::FileMeta> ResolveFooter(
    const format::SyntheticFileCatalog* catalog, const std::string& key,
    const storage::Blob& tail, int64_t tail_offset, int64_t file_size);

/// Payload helpers (also used by the coordinator).
struct TableFileAssignment {
  std::string key;
  int64_t size = 0;
};

struct WorkerInputAssignment {
  // Mirrors the pipeline's InputSpec order.
  std::vector<TableFileAssignment> files;  ///< kTable inputs.
  int upstream_fragments = 0;              ///< kShuffle inputs.
};

/// `pipeline` is the stage's PipelineSpec::ToJson(), built once and shared
/// by every fragment's payload.
Json WorkerPayload(const std::string& query_id, const Json& pipeline,
                   int fragment,
                   const std::vector<WorkerInputAssignment>& inputs);

}  // namespace skyrise::engine
