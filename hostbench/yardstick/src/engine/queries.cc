#include "engine/queries.h"

#include "data/types.h"

namespace skyrise::engine {

namespace {

double Date(int y, int m, int d) {
  return static_cast<double>(data::DaysSinceEpoch(y, m, d));
}

OperatorSpec PartitionWrite(std::vector<std::string> keys, int partitions) {
  OperatorSpec op;
  op.op = "partition_write";
  op.partition_keys = std::move(keys);
  op.partition_count = partitions;
  return op;
}

OperatorSpec Collect() {
  OperatorSpec op;
  op.op = "collect";
  return op;
}

}  // namespace

QueryPlan BuildTpchQ6() {
  QueryPlan plan;
  plan.query_name = "tpch-q6";

  // Stage 1: selective scan + partial aggregation per worker.
  PipelineSpec scan;
  scan.id = 1;
  InputSpec input;
  input.type = InputSpec::Type::kTable;
  input.table = "lineitem";
  input.columns = {"l_shipdate", "l_discount", "l_quantity",
                   "l_extendedprice"};
  input.pushdown =
      And(And(Cmp(">=", Col("l_shipdate"), Num(Date(1994, 1, 1))),
              Cmp("<", Col("l_shipdate"), Num(Date(1995, 1, 1)))),
          And(Between(Col("l_discount"), Num(0.05), Num(0.07)),
              Cmp("<", Col("l_quantity"), Num(24))));
  // Synthetic hint: shipdate pruning removes most row groups; the residual
  // discount/quantity/date selectivity within surviving groups is ~0.125
  // (3/11 discount steps x 23/50 quantities).
  input.pushdown_selectivity = 0.125;
  scan.inputs.push_back(std::move(input));

  OperatorSpec project;
  project.op = "project";
  project.projections.emplace_back(
      "revenue", Arith("*", Col("l_extendedprice"), Col("l_discount")));
  scan.ops.push_back(std::move(project));

  OperatorSpec partial;
  partial.op = "hash_agg";
  partial.aggregates.push_back({"sum", Col("revenue"), "revenue"});
  partial.groups_hint = 1;
  scan.ops.push_back(std::move(partial));
  scan.ops.push_back(PartitionWrite({}, 1));
  plan.pipelines.push_back(std::move(scan));

  // Stage 2: final aggregation.
  PipelineSpec final_stage;
  final_stage.id = 2;
  final_stage.depends_on = {1};
  InputSpec shuffle;
  shuffle.type = InputSpec::Type::kShuffle;
  shuffle.upstream_pipeline = 1;
  final_stage.inputs.push_back(std::move(shuffle));
  OperatorSpec final_agg;
  final_agg.op = "hash_agg";
  final_agg.aggregates.push_back({"sum", Col("revenue"), "revenue"});
  final_agg.groups_hint = 1;
  final_stage.ops.push_back(std::move(final_agg));
  final_stage.ops.push_back(Collect());
  plan.pipelines.push_back(std::move(final_stage));
  return plan;
}

QueryPlan BuildTpchQ1() {
  QueryPlan plan;
  plan.query_name = "tpch-q1";

  PipelineSpec scan;
  scan.id = 1;
  InputSpec input;
  input.type = InputSpec::Type::kTable;
  input.table = "lineitem";
  input.columns = {"l_returnflag", "l_linestatus", "l_quantity",
                   "l_extendedprice", "l_discount", "l_tax", "l_shipdate"};
  input.pushdown = Cmp("<=", Col("l_shipdate"), Num(Date(1998, 9, 2)));
  input.pushdown_selectivity = 0.98;
  scan.inputs.push_back(std::move(input));

  OperatorSpec project;
  project.op = "project";
  project.projections.emplace_back("l_returnflag", Col("l_returnflag"));
  project.projections.emplace_back("l_linestatus", Col("l_linestatus"));
  project.projections.emplace_back("l_quantity", Col("l_quantity"));
  project.projections.emplace_back("l_extendedprice", Col("l_extendedprice"));
  project.projections.emplace_back("l_discount", Col("l_discount"));
  project.projections.emplace_back(
      "disc_price", Arith("*", Col("l_extendedprice"),
                          Arith("-", Num(1), Col("l_discount"))));
  project.projections.emplace_back(
      "charge",
      Arith("*",
            Arith("*", Col("l_extendedprice"),
                  Arith("-", Num(1), Col("l_discount"))),
            Arith("+", Num(1), Col("l_tax"))));
  scan.ops.push_back(std::move(project));

  OperatorSpec partial;
  partial.op = "hash_agg";
  partial.group_by = {"l_returnflag", "l_linestatus"};
  partial.aggregates.push_back({"sum", Col("l_quantity"), "sum_qty"});
  partial.aggregates.push_back(
      {"sum", Col("l_extendedprice"), "sum_base_price"});
  partial.aggregates.push_back({"sum", Col("disc_price"), "sum_disc_price"});
  partial.aggregates.push_back({"sum", Col("charge"), "sum_charge"});
  partial.aggregates.push_back({"sum", Col("l_discount"), "sum_disc"});
  partial.aggregates.push_back({"count", nullptr, "count_order"});
  partial.groups_hint = 4;
  scan.ops.push_back(std::move(partial));
  scan.ops.push_back(PartitionWrite({}, 1));
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
  final_agg.group_by = {"l_returnflag", "l_linestatus"};
  final_agg.aggregates.push_back({"sum", Col("sum_qty"), "sum_qty"});
  final_agg.aggregates.push_back(
      {"sum", Col("sum_base_price"), "sum_base_price"});
  final_agg.aggregates.push_back(
      {"sum", Col("sum_disc_price"), "sum_disc_price"});
  final_agg.aggregates.push_back({"sum", Col("sum_charge"), "sum_charge"});
  final_agg.aggregates.push_back({"sum", Col("sum_disc"), "sum_disc"});
  final_agg.aggregates.push_back({"sum", Col("count_order"), "count_order"});
  final_agg.groups_hint = 4;
  final_stage.ops.push_back(std::move(final_agg));

  OperatorSpec averages;
  averages.op = "project";
  averages.projections.emplace_back("l_returnflag", Col("l_returnflag"));
  averages.projections.emplace_back("l_linestatus", Col("l_linestatus"));
  averages.projections.emplace_back("sum_qty", Col("sum_qty"));
  averages.projections.emplace_back("sum_base_price", Col("sum_base_price"));
  averages.projections.emplace_back("sum_disc_price", Col("sum_disc_price"));
  averages.projections.emplace_back("sum_charge", Col("sum_charge"));
  averages.projections.emplace_back(
      "avg_qty", Arith("/", Col("sum_qty"), Col("count_order")));
  averages.projections.emplace_back(
      "avg_price", Arith("/", Col("sum_base_price"), Col("count_order")));
  averages.projections.emplace_back(
      "avg_disc", Arith("/", Col("sum_disc"), Col("count_order")));
  averages.projections.emplace_back("count_order", Col("count_order"));
  final_stage.ops.push_back(std::move(averages));

  OperatorSpec sort;
  sort.op = "sort";
  sort.sort_keys = {"l_returnflag", "l_linestatus"};
  sort.sort_ascending = {true, true};
  final_stage.ops.push_back(std::move(sort));
  final_stage.ops.push_back(Collect());
  plan.pipelines.push_back(std::move(final_stage));
  return plan;
}

QueryPlan BuildTpchQ12(const QuerySuiteOptions& options) {
  QueryPlan plan;
  plan.query_name = "tpch-q12";
  const int parts = options.join_partitions;

  // Stage 1: lineitem scan, selective, shuffled by order key.
  PipelineSpec lineitem;
  lineitem.id = 1;
  InputSpec li;
  li.type = InputSpec::Type::kTable;
  li.table = "lineitem";
  li.columns = {"l_orderkey", "l_shipmode", "l_shipdate", "l_commitdate",
                "l_receiptdate"};
  li.pushdown = And(
      And(InList(Col("l_shipmode"), {"MAIL", "SHIP"}),
          And(Cmp("<", Col("l_commitdate"), Col("l_receiptdate")),
              Cmp("<", Col("l_shipdate"), Col("l_commitdate")))),
      And(Cmp(">=", Col("l_receiptdate"), Num(Date(1994, 1, 1))),
          Cmp("<", Col("l_receiptdate"), Num(Date(1995, 1, 1)))));
  // 2/7 shipmodes x ~1/4 date orderings x ~1/7 receipt year (partially
  // handled by pruning on receiptdate; residual hint).
  li.pushdown_selectivity = 0.07;
  lineitem.inputs.push_back(std::move(li));
  lineitem.ops.push_back(PartitionWrite({"l_orderkey"}, parts));
  plan.pipelines.push_back(std::move(lineitem));

  // Stage 2: orders scan, shuffled by order key.
  PipelineSpec orders;
  orders.id = 2;
  InputSpec o;
  o.type = InputSpec::Type::kTable;
  o.table = "orders";
  o.columns = {"o_orderkey", "o_orderpriority"};
  orders.inputs.push_back(std::move(o));
  orders.ops.push_back(PartitionWrite({"o_orderkey"}, parts));
  plan.pipelines.push_back(std::move(orders));

  // Stage 3: co-partitioned hash join + partial conditional aggregation.
  PipelineSpec join;
  join.id = 3;
  join.depends_on = {1, 2};
  InputSpec probe;
  probe.type = InputSpec::Type::kShuffle;
  probe.upstream_pipeline = 1;
  join.inputs.push_back(std::move(probe));
  InputSpec build;
  build.type = InputSpec::Type::kShuffle;
  build.upstream_pipeline = 2;
  join.inputs.push_back(std::move(build));

  OperatorSpec hash_join;
  hash_join.op = "hash_join";
  hash_join.probe_keys = {"l_orderkey"};
  hash_join.build_keys = {"o_orderkey"};
  hash_join.build_columns = {"o_orderpriority"};
  hash_join.build_input = 1;
  hash_join.join_multiplier = 1.0;  // Every lineitem has exactly one order.
  join.ops.push_back(std::move(hash_join));

  OperatorSpec flags;
  flags.op = "project";
  flags.projections.emplace_back("l_shipmode", Col("l_shipmode"));
  flags.projections.emplace_back(
      "high_flag", Indicator(InList(Col("o_orderpriority"),
                                    {"1-URGENT", "2-HIGH"})));
  flags.projections.emplace_back(
      "low_flag",
      Arith("-", Num(1), Indicator(InList(Col("o_orderpriority"),
                                          {"1-URGENT", "2-HIGH"}))));
  join.ops.push_back(std::move(flags));

  OperatorSpec partial;
  partial.op = "hash_agg";
  partial.group_by = {"l_shipmode"};
  partial.aggregates.push_back({"sum", Col("high_flag"), "high_line_count"});
  partial.aggregates.push_back({"sum", Col("low_flag"), "low_line_count"});
  partial.groups_hint = 2;
  join.ops.push_back(std::move(partial));
  join.ops.push_back(PartitionWrite({}, 1));
  plan.pipelines.push_back(std::move(join));

  // Stage 4: final aggregation + sort.
  PipelineSpec final_stage;
  final_stage.id = 4;
  final_stage.depends_on = {3};
  InputSpec shuffle;
  shuffle.type = InputSpec::Type::kShuffle;
  shuffle.upstream_pipeline = 3;
  final_stage.inputs.push_back(std::move(shuffle));
  OperatorSpec final_agg;
  final_agg.op = "hash_agg";
  final_agg.group_by = {"l_shipmode"};
  final_agg.aggregates.push_back(
      {"sum", Col("high_line_count"), "high_line_count"});
  final_agg.aggregates.push_back(
      {"sum", Col("low_line_count"), "low_line_count"});
  final_agg.groups_hint = 2;
  final_stage.ops.push_back(std::move(final_agg));
  OperatorSpec sort;
  sort.op = "sort";
  sort.sort_keys = {"l_shipmode"};
  sort.sort_ascending = {true};
  final_stage.ops.push_back(std::move(sort));
  final_stage.ops.push_back(Collect());
  plan.pipelines.push_back(std::move(final_stage));
  return plan;
}

QueryPlan BuildTpcxBbQ3(const QuerySuiteOptions& options) {
  QueryPlan plan;
  plan.query_name = "tpcxbb-q3";
  const int parts = options.join_partitions;

  // Stage 1: clickstream scan shuffled by user (map phase).
  PipelineSpec clicks;
  clicks.id = 1;
  InputSpec cs;
  cs.type = InputSpec::Type::kTable;
  cs.table = "clickstreams";
  cs.columns = {"wcs_click_date", "wcs_user_sk", "wcs_item_sk",
                "wcs_sales_sk"};
  clicks.inputs.push_back(std::move(cs));
  clicks.ops.push_back(PartitionWrite({"wcs_user_sk"}, parts));
  plan.pipelines.push_back(std::move(clicks));

  // Stage 2: per-user sessionization with the item dimension broadcast.
  PipelineSpec sessionize;
  sessionize.id = 2;
  sessionize.depends_on = {1};
  InputSpec shuffle;
  shuffle.type = InputSpec::Type::kShuffle;
  shuffle.upstream_pipeline = 1;
  sessionize.inputs.push_back(std::move(shuffle));
  InputSpec item;
  item.type = InputSpec::Type::kTable;
  item.table = "item";
  item.columns = {"i_item_sk", "i_category_id"};
  sessionize.inputs.push_back(std::move(item));

  OperatorSpec join;
  join.op = "hash_join";
  join.probe_keys = {"wcs_item_sk"};
  join.build_keys = {"i_item_sk"};
  join.build_columns = {"i_category_id"};
  join.build_input = 1;
  join.join_multiplier = 1.0;
  sessionize.ops.push_back(std::move(join));

  OperatorSpec udf;
  udf.op = "bb_sessionize";
  udf.session_window_days = options.bb_window_days;
  udf.target_category = options.bb_target_category;
  udf.udf_output_ratio = 0.02;
  sessionize.ops.push_back(std::move(udf));

  OperatorSpec partial;
  partial.op = "hash_agg";
  partial.group_by = {"item_sk"};
  partial.aggregates.push_back({"count", nullptr, "views"});
  partial.groups_hint = 1000;
  sessionize.ops.push_back(std::move(partial));
  sessionize.ops.push_back(PartitionWrite({}, 1));
  plan.pipelines.push_back(std::move(sessionize));

  // Stage 3: final count + top-k (reduce phase).
  PipelineSpec final_stage;
  final_stage.id = 3;
  final_stage.depends_on = {2};
  InputSpec in;
  in.type = InputSpec::Type::kShuffle;
  in.upstream_pipeline = 2;
  final_stage.inputs.push_back(std::move(in));
  OperatorSpec final_agg;
  final_agg.op = "hash_agg";
  final_agg.group_by = {"item_sk"};
  final_agg.aggregates.push_back({"sum", Col("views"), "views"});
  final_agg.groups_hint = 1000;
  final_stage.ops.push_back(std::move(final_agg));
  OperatorSpec sort;
  sort.op = "sort";
  sort.sort_keys = {"views", "item_sk"};
  sort.sort_ascending = {false, true};
  final_stage.ops.push_back(std::move(sort));
  OperatorSpec limit;
  limit.op = "limit";
  limit.limit = options.bb_top_k;
  final_stage.ops.push_back(std::move(limit));
  final_stage.ops.push_back(Collect());
  plan.pipelines.push_back(std::move(final_stage));
  return plan;
}

std::vector<QueryPlan> BuildQuerySuite(const QuerySuiteOptions& options) {
  return {BuildTpchQ1(), BuildTpchQ6(), BuildTpchQ12(options),
          BuildTpcxBbQ3(options)};
}

}  // namespace skyrise::engine
