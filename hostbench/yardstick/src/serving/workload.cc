#include "serving/workload.h"

#include "data/types.h"

namespace skyrise::serving {

const char* QueryClassName(QueryClass cls) {
  switch (cls) {
    case QueryClass::kTpchQ1:
      return "tpch-q1";
    case QueryClass::kTpchQ6:
      return "tpch-q6";
    case QueryClass::kTpchQ12:
      return "tpch-q12";
    case QueryClass::kTpcxBbQ3:
      return "tpcxbb-q3";
    case QueryClass::kAdHoc:
      return "adhoc";
  }
  return "unknown";
}

WorkloadMix WorkloadMix::Interactive() {
  WorkloadMix mix;
  mix.entries = {{QueryClass::kTpchQ6, 0.6}, {QueryClass::kAdHoc, 0.4}};
  return mix;
}

WorkloadMix WorkloadMix::Analytics() {
  WorkloadMix mix;
  mix.entries = {{QueryClass::kTpchQ1, 0.4},
                 {QueryClass::kTpchQ12, 0.4},
                 {QueryClass::kTpcxBbQ3, 0.2}};
  return mix;
}

WorkloadMix WorkloadMix::Uniform() {
  WorkloadMix mix;
  mix.entries = {{QueryClass::kTpchQ1, 1.0},
                 {QueryClass::kTpchQ6, 1.0},
                 {QueryClass::kTpchQ12, 1.0},
                 {QueryClass::kTpcxBbQ3, 1.0},
                 {QueryClass::kAdHoc, 1.0}};
  return mix;
}

QueryClass SampleClass(const WorkloadMix& mix, Rng* rng) {
  double total = 0;
  for (const auto& entry : mix.entries) total += entry.weight;
  if (total <= 0) return QueryClass::kTpchQ6;
  double pick = rng->Uniform(0, total);
  for (const auto& entry : mix.entries) {
    pick -= entry.weight;
    if (pick < 0) return entry.cls;
  }
  return mix.entries.back().cls;
}

namespace {

/// Randomized selective lineitem scan in the shape of Q6: a date window,
/// a discount band, and a quantity cutoff drawn per arrival, feeding one of
/// several aggregates. Two stages (partial agg per worker, final agg), so
/// ad-hoc traffic still exercises shuffle writes and the second scheduling
/// wave.
engine::QueryPlan BuildAdHoc(Rng* rng) {
  using engine::And;
  using engine::Arith;
  using engine::Between;
  using engine::Cmp;
  using engine::Col;
  using engine::InputSpec;
  using engine::Num;
  using engine::OperatorSpec;
  using engine::PipelineSpec;
  using engine::QueryPlan;
  const int year = static_cast<int>(rng->UniformInt(1993, 1996));
  const double lo_discount = 0.01 * static_cast<double>(rng->UniformInt(1, 6));
  const double hi_discount = lo_discount + 0.02;
  const double quantity_cut = static_cast<double>(rng->UniformInt(10, 40));
  const int agg_pick = static_cast<int>(rng->UniformInt(0, 2));

  QueryPlan plan;
  plan.query_name = "adhoc";

  PipelineSpec scan;
  scan.id = 1;
  InputSpec input;
  input.type = InputSpec::Type::kTable;
  input.table = "lineitem";
  input.columns = {"l_shipdate", "l_discount", "l_quantity",
                   "l_extendedprice"};
  const double from = static_cast<double>(data::DaysSinceEpoch(year, 1, 1));
  const double to = static_cast<double>(data::DaysSinceEpoch(year + 1, 1, 1));
  input.pushdown =
      And(And(Cmp(">=", Col("l_shipdate"), Num(from)),
              Cmp("<", Col("l_shipdate"), Num(to))),
          And(Between(Col("l_discount"), Num(lo_discount), Num(hi_discount)),
              Cmp("<", Col("l_quantity"), Num(quantity_cut))));
  // Synthetic hint: ~3/11 discount steps times the quantity fraction.
  input.pushdown_selectivity = 0.27 * quantity_cut / 50.0;
  scan.inputs.push_back(std::move(input));

  OperatorSpec project;
  project.op = "project";
  project.projections.emplace_back(
      "metric", Arith("*", Col("l_extendedprice"), Col("l_discount")));
  scan.ops.push_back(std::move(project));

  const char* agg_fn = agg_pick == 0 ? "sum" : agg_pick == 1 ? "min" : "max";
  OperatorSpec partial;
  partial.op = "hash_agg";
  partial.aggregates.push_back({agg_fn, Col("metric"), "metric"});
  partial.groups_hint = 1;
  scan.ops.push_back(std::move(partial));

  OperatorSpec write;
  write.op = "partition_write";
  write.partition_count = 1;
  scan.ops.push_back(std::move(write));
  plan.pipelines.push_back(std::move(scan));

  PipelineSpec final_stage;
  final_stage.id = 2;
  final_stage.depends_on = {1};
  InputSpec shuffle;
  shuffle.type = InputSpec::Type::kShuffle;
  shuffle.upstream_pipeline = 1;
  final_stage.inputs.push_back(std::move(shuffle));
  OperatorSpec final_agg;
  final_agg.op = "hash_agg";
  final_agg.aggregates.push_back({agg_fn, Col("metric"), "metric"});
  final_agg.groups_hint = 1;
  final_stage.ops.push_back(std::move(final_agg));
  OperatorSpec collect;
  collect.op = "collect";
  final_stage.ops.push_back(std::move(collect));
  plan.pipelines.push_back(std::move(final_stage));
  return plan;
}

}  // namespace

engine::QueryPlan BuildPlanFor(QueryClass cls,
                               const engine::QuerySuiteOptions& options,
                               Rng* rng) {
  switch (cls) {
    case QueryClass::kTpchQ1:
      return engine::BuildTpchQ1();
    case QueryClass::kTpchQ6:
      return engine::BuildTpchQ6();
    case QueryClass::kTpchQ12:
      return engine::BuildTpchQ12(options);
    case QueryClass::kTpcxBbQ3:
      return engine::BuildTpcxBbQ3(options);
    case QueryClass::kAdHoc:
      return BuildAdHoc(rng);
  }
  return engine::BuildTpchQ6();
}

}  // namespace skyrise::serving
