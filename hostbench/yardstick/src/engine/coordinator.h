#pragma once

#include "engine/context.h"
#include "engine/worker.h"

/// \file coordinator.h
/// The Skyrise query coordinator function. It receives a physical plan in
/// JSON, fetches dataset metadata (file counts/sizes), compiles a
/// distributed plan (fragments per pipeline, worker assignment), schedules
/// pipelines stage-wise along their dependencies, fans out worker
/// invocations (two-level for large stages), and returns the result
/// location, runtime, and execution statistics.

namespace skyrise::engine {

faas::FunctionHandler MakeCoordinatorHandler(EngineContext* context);
faas::FunctionHandler MakeInvokerHandler(EngineContext* context);

/// Builds the coordinator invocation payload.
/// `partitions_per_worker` <= 0 uses the context default.
Json CoordinatorPayload(const QueryPlan& plan, const std::string& query_id,
                        int partitions_per_worker = 0);

}  // namespace skyrise::engine
