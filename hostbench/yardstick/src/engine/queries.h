#pragma once

#include "engine/plan.h"

/// \file queries.h
/// Physical plans for the paper's query suite (Section 3.1): the I/O-heavy
/// TPC-H Q1 (scan-heavy aggregation), Q6 (selective scan + aggregation),
/// Q12 (shuffle join with conditional aggregation), and TPCx-BB Q3 (an
/// I/O-bound MapReduce-style sessionization job with a UDF). Plans include
/// the synthetic-mode cardinality hints used at paper scale.

namespace skyrise::engine {

struct QuerySuiteOptions {
  /// Shuffle width for join queries (fragments of the join stage).
  int join_partitions = 8;
  /// TPCx-BB Q3 parameters.
  int64_t bb_target_category = 1;
  int64_t bb_window_days = 10;
  int bb_top_k = 30;
};

/// TPC-H Q6: revenue from discounted small-quantity lineitems of 1994.
QueryPlan BuildTpchQ6();

/// TPC-H Q1: pricing summary report (scan-heavy aggregation).
QueryPlan BuildTpchQ1();

/// TPC-H Q12: shipmode priority counts (lineitem-orders shuffle join).
QueryPlan BuildTpchQ12(const QuerySuiteOptions& options = {});

/// TPCx-BB Q3: items viewed before purchases of a category (sessionization).
QueryPlan BuildTpcxBbQ3(const QuerySuiteOptions& options = {});

/// All four, in the paper's order (Q1, Q6, Q12, BB Q3).
std::vector<QueryPlan> BuildQuerySuite(const QuerySuiteOptions& options = {});

}  // namespace skyrise::engine
