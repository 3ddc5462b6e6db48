#pragma once

#include <string>
#include <vector>

#include "common/random.h"
#include "engine/queries.h"

/// \file workload.h
/// Per-tenant query mixes for the serving frontend, mirroring the SeBS
/// mixed-workload methodology: each tenant draws query classes from a
/// weighted mix — the paper's TPC-H/TPCx-BB suite plus a parameterized
/// ad-hoc class whose predicates are sampled from the tenant's RNG stream
/// (so "exploratory" traffic differs per arrival but is still a pure
/// function of the seed).

namespace skyrise::serving {

enum class QueryClass {
  kTpchQ1,    ///< Scan-heavy aggregation.
  kTpchQ6,    ///< Selective scan + aggregation (interactive-sized).
  kTpchQ12,   ///< Shuffle join.
  kTpcxBbQ3,  ///< Sessionization MapReduce with a UDF.
  kAdHoc,     ///< Randomized selective lineitem scan (exploratory traffic).
};

const char* QueryClassName(QueryClass cls);

/// Weighted class mix; weights need not sum to 1.
struct WorkloadMix {
  struct Entry {
    QueryClass cls;
    double weight = 1.0;
  };
  std::vector<Entry> entries;

  /// Interactive dashboards: mostly Q6 and ad-hoc probes.
  static WorkloadMix Interactive();
  /// Scheduled analytics: the heavier suite queries.
  static WorkloadMix Analytics();
  /// All five classes, equal weight.
  static WorkloadMix Uniform();
};

/// Draws a class from `mix` (deterministic given the RNG state). An empty
/// mix yields kTpchQ6.
QueryClass SampleClass(const WorkloadMix& mix, Rng* rng);

/// Builds the physical plan for one arrival of `cls`. kAdHoc consumes RNG
/// draws for its predicate/aggregate parameters; the suite classes ignore
/// `rng`.
engine::QueryPlan BuildPlanFor(QueryClass cls,
                               const engine::QuerySuiteOptions& options,
                               Rng* rng);

}  // namespace skyrise::serving
