#pragma once

#include "common/random.h"
#include "data/chunk.h"

/// \file tpcxbb.h
/// TPCx-BB-style generator for the web_clickstreams and item tables used by
/// the paper's Q3 (an I/O-bound MapReduce-style sessionization job with a
/// UDF). Clickstreams are partitioned by user range so any partition can be
/// generated independently; each user's clicks are a time-ordered stream of
/// item views with occasional purchases.

namespace skyrise::datagen {

data::Schema ClickstreamsSchema();
data::Schema ItemSchema();

struct TpcxBbConfig {
  double scale_factor = 0.01;
  uint64_t seed = 20130601;
  /// Users and items scale linearly; clicks per user follow a heavy-ish
  /// geometric-style distribution around this mean.
  int64_t users_per_sf = 50000;
  int64_t items_per_sf = 2000;
  double clicks_per_user = 20.0;
  int num_categories = 10;
};

int64_t TotalUsers(const TpcxBbConfig& config);
int64_t TotalItems(const TpcxBbConfig& config);

/// Clickstream rows for user-range partition `partition` of
/// `partition_count`, ordered by (user, click date).
data::Chunk GenerateClickstreamsPartition(const TpcxBbConfig& config,
                                          int partition, int partition_count);

/// The (single-partition) item dimension table.
data::Chunk GenerateItemTable(const TpcxBbConfig& config);

}  // namespace skyrise::datagen
