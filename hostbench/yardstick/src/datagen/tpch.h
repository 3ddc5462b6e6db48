#pragma once

#include "common/random.h"
#include "data/chunk.h"

/// \file tpch.h
/// Deterministic TPC-H-style data generator for the tables the paper's query
/// suite touches (lineitem, orders). Generation is partitioned: partition p
/// of P covers a contiguous order-key range and contains all lineitems of
/// those orders, so joins across partitioned files are consistent and any
/// partition can be (re)generated independently — the property the engine's
/// data-parallel workers rely on.
///
/// Value distributions follow the TPC-H specification closely enough for the
/// paper's queries: quantities 1-50, discounts 0.00-0.10, dates uniform over
/// 1992-1998, the standard flag/mode/priority domains, and selectivities
/// matching the published Q1/Q6/Q12 filter fractions.

namespace skyrise::datagen {

/// Rows per scale factor unit (TPC-H: 6M lineitems, 1.5M orders per SF).
constexpr int64_t kOrdersPerSf = 1500000;
constexpr double kLineitemsPerOrder = 4.0;  ///< Expected (1..7 uniform-ish).

data::Schema LineitemSchema();
data::Schema OrdersSchema();

struct TpchConfig {
  double scale_factor = 0.01;
  uint64_t seed = 19920101;
};

/// Generates lineitem rows for partition `partition` of `partition_count`.
data::Chunk GenerateLineitemPartition(const TpchConfig& config, int partition,
                                      int partition_count);

/// Generates orders rows for partition `partition` of `partition_count`.
data::Chunk GenerateOrdersPartition(const TpchConfig& config, int partition,
                                    int partition_count);

}  // namespace skyrise::datagen
