#pragma once

#include "data/chunk.h"
#include "engine/queries.h"

/// \file reference.h
/// Independent single-pass, in-memory implementations of the query suite,
/// used as ground truth to validate the distributed engine's results. They
/// share no code with the operator implementations.

namespace skyrise::engine {

struct Q6Reference {
  double revenue = 0;
};
Q6Reference ReferenceQ6(const data::Chunk& lineitem);

struct Q1Group {
  std::string returnflag;
  std::string linestatus;
  double sum_qty = 0;
  double sum_base_price = 0;
  double sum_disc_price = 0;
  double sum_charge = 0;
  double avg_qty = 0;
  double avg_price = 0;
  double avg_disc = 0;
  int64_t count_order = 0;
};
/// Sorted by (returnflag, linestatus).
std::vector<Q1Group> ReferenceQ1(const data::Chunk& lineitem);

struct Q12Group {
  std::string shipmode;
  int64_t high_line_count = 0;
  int64_t low_line_count = 0;
};
/// Sorted by shipmode.
std::vector<Q12Group> ReferenceQ12(const data::Chunk& lineitem,
                                   const data::Chunk& orders);

struct BbQ3Row {
  int64_t item_sk = 0;
  int64_t views = 0;
};
/// Top-k items viewed within the window before same-category purchases,
/// sorted by (views desc, item asc).
std::vector<BbQ3Row> ReferenceBbQ3(const data::Chunk& clickstreams,
                                   const data::Chunk& item,
                                   const QuerySuiteOptions& options);

}  // namespace skyrise::engine
