#include "engine/engine.h"

#include <gtest/gtest.h>

#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "datagen/tpcxbb.h"
#include "engine/queries.h"
#include "engine/reference.h"
#include "storage/object_store.h"

namespace skyrise::engine {
namespace {

/// Retention pin: memory follows in-flight work. Re-registers the engine's
/// functions with each handler wrapped to keep a weak reference to every
/// invocation's context. A context outlives its invocation only if something
/// the handler left behind (a task, a closure) still owns it, so once the
/// environment drains every reference must have expired.
class RetentionProbe {
 public:
  [[nodiscard]] Status Deploy(QueryEngine* engine,
                              faas::FunctionRegistry* registry) {
    faas::FunctionRegistry staging;
    SKYRISE_RETURN_IF_ERROR(engine->Deploy(&staging));
    for (const char* function :
         {kCoordinatorFunction, kWorkerFunction, kInvokerFunction}) {
      faas::FunctionRegistry::Entry entry;
      SKYRISE_ASSIGN_OR_RETURN(entry, staging.Find(function));
      SKYRISE_RETURN_IF_ERROR(registry->Register(
          entry.config,
          [this, function, handler = std::move(entry.handler)](
              const std::shared_ptr<faas::FunctionContext>& ctx) {
            contexts_[function].push_back(ctx);
            handler(ctx);
          }));
    }
    return Status::OK();
  }

  /// Invocations of `function` seen so far.
  size_t Invocations(const std::string& function) const {
    auto it = contexts_.find(function);
    return it == contexts_.end() ? 0 : it->second.size();
  }

  /// Contexts of `function` still alive.
  size_t Live(const std::string& function) const {
    auto it = contexts_.find(function);
    if (it == contexts_.end()) return 0;
    size_t live = 0;
    for (const auto& ctx : it->second) live += ctx.expired() ? 0 : 1;
    return live;
  }

 private:
  std::map<std::string, std::vector<std::weak_ptr<faas::FunctionContext>>>
      contexts_;
};

/// End-to-end: generated TPC data uploaded to simulated S3, queries executed
/// by the distributed engine on the simulated FaaS platform (and the EC2
/// shim), results compared against independent reference implementations.
class EngineE2ETest : public ::testing::Test {
 protected:
  static constexpr int kPartitions = 6;

  EngineE2ETest()
      : fabric_driver_(&env_, &fabric_),
        store_(&env_, storage::ObjectStore::StandardOptions()),
        queue_(&env_) {
    tpch_.scale_factor = 0.002;  // 3,000 orders, ~12K lineitems.
    bb_.scale_factor = 0.01;

    lineitem_ = *datagen::UploadDataset(
        &store_, "lineitem", datagen::LineitemSchema(), kPartitions,
        [&](int p) {
          return datagen::GenerateLineitemPartition(tpch_, p, kPartitions);
        });
    orders_ = *datagen::UploadDataset(
        &store_, "orders", datagen::OrdersSchema(), kPartitions, [&](int p) {
          return datagen::GenerateOrdersPartition(tpch_, p, kPartitions);
        });
    clicks_ = *datagen::UploadDataset(
        &store_, "clickstreams", datagen::ClickstreamsSchema(), kPartitions,
        [&](int p) {
          return datagen::GenerateClickstreamsPartition(bb_, p, kPartitions);
        });
    item_ = *datagen::UploadDataset(
        &store_, "item", datagen::ItemSchema(), 1,
        [&](int) { return datagen::GenerateItemTable(bb_); });

    EngineContext context;
    context.env = &env_;
    context.table_store = &store_;
    context.shuffle_store = &store_;
    context.catalog = &catalog_;
    context.queue = &queue_;
    context.meter = &meter_;
    context.partitions_per_worker = 2;
    engine_ = std::make_unique<QueryEngine>(std::move(context));
    SKYRISE_CHECK_OK(engine_->Deploy(&registry_));

    lambda_ = std::make_unique<faas::LambdaPlatform>(
        &env_, &fabric_driver_, &registry_, LambdaOptions());
  }

  static faas::LambdaPlatform::Options LambdaOptions() {
    faas::LambdaPlatform::Options options;
    options.account_concurrency = 10000;
    return options;
  }

  /// Deploys the engine a second time behind `probe_`, on its own Lambda
  /// platform.
  faas::ComputePlatform* DeployProbed() {
    SKYRISE_CHECK_OK(probe_.Deploy(engine_.get(), &probed_registry_));
    probed_lambda_ = std::make_unique<faas::LambdaPlatform>(
        &env_, &fabric_driver_, &probed_registry_, LambdaOptions());
    return probed_lambda_.get();
  }

  QueryResponse RunOnLambda(const QueryPlan& plan, const std::string& id) {
    return RunOn(lambda_.get(), plan, id);
  }

  QueryResponse RunOn(faas::ComputePlatform* platform, const QueryPlan& plan,
                      const std::string& id) {
    Result<QueryResponse> outcome = Status::Internal("did not complete");
    engine_->Run(platform, plan, id,
                 [&](Result<QueryResponse> r) { outcome = std::move(r); });
    env_.RunUntil(env_.now() + Minutes(30));
    SKYRISE_CHECK_OK(outcome.status());
    return std::move(outcome).ValueUnsafe();
  }

  /// Concatenates all partitions of a table for the reference runs.
  data::Chunk WholeTable(const datagen::DatasetInfo& info,
                         const std::function<data::Chunk(int)>& gen,
                         int partitions) {
    data::Chunk all = gen(0);
    for (int p = 1; p < partitions; ++p) all.Append(gen(p));
    (void)info;
    return all;
  }

  void ExpectQ12MatchesReference(const data::Chunk& result) {
    auto lineitem = WholeTable(lineitem_, [&](int p) {
      return datagen::GenerateLineitemPartition(tpch_, p, kPartitions);
    }, kPartitions);
    auto orders = WholeTable(orders_, [&](int p) {
      return datagen::GenerateOrdersPartition(tpch_, p, kPartitions);
    }, kPartitions);
    const auto reference = ReferenceQ12(lineitem, orders);
    ASSERT_EQ(result.rows(), static_cast<int64_t>(reference.size()));
    for (size_t g = 0; g < reference.size(); ++g) {
      EXPECT_EQ(result.column("l_shipmode").strings()[g],
                reference[g].shipmode);
      EXPECT_NEAR(result.column("high_line_count").doubles()[g],
                  static_cast<double>(reference[g].high_line_count), 0.1);
      EXPECT_NEAR(result.column("low_line_count").doubles()[g],
                  static_cast<double>(reference[g].low_line_count), 0.1);
    }
  }

  sim::SimEnvironment env_{2024};
  net::Fabric fabric_;
  net::FabricDriver fabric_driver_;
  storage::ObjectStore store_;
  storage::QueueService queue_;
  format::SyntheticFileCatalog catalog_;
  pricing::CostMeter meter_;
  faas::FunctionRegistry registry_;
  datagen::TpchConfig tpch_;
  datagen::TpcxBbConfig bb_;
  datagen::DatasetInfo lineitem_, orders_, clicks_, item_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<faas::LambdaPlatform> lambda_;
  faas::FunctionRegistry probed_registry_;
  RetentionProbe probe_;
  std::unique_ptr<faas::LambdaPlatform> probed_lambda_;
};

TEST_F(EngineE2ETest, Q6MatchesReference) {
  auto response = RunOnLambda(BuildTpchQ6(), "q6");
  EXPECT_GT(response.runtime_ms, 0);
  EXPECT_GE(response.total_workers, kPartitions / 2 + 1);

  auto result = engine_->FetchResult("q6");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows(), 1);
  const double revenue = result->column("revenue").doubles()[0];

  auto whole = WholeTable(lineitem_, [&](int p) {
    return datagen::GenerateLineitemPartition(tpch_, p, kPartitions);
  }, kPartitions);
  const auto reference = ReferenceQ6(whole);
  EXPECT_GT(reference.revenue, 0);
  EXPECT_NEAR(revenue, reference.revenue, 1e-6 * reference.revenue);
}

TEST_F(EngineE2ETest, Q1MatchesReference) {
  auto response = RunOnLambda(BuildTpchQ1(), "q1");
  auto result = engine_->FetchResult("q1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto whole = WholeTable(lineitem_, [&](int p) {
    return datagen::GenerateLineitemPartition(tpch_, p, kPartitions);
  }, kPartitions);
  const auto reference = ReferenceQ1(whole);
  ASSERT_EQ(result->rows(), static_cast<int64_t>(reference.size()));
  for (size_t g = 0; g < reference.size(); ++g) {
    EXPECT_EQ(result->column("l_returnflag").strings()[g],
              reference[g].returnflag);
    EXPECT_EQ(result->column("l_linestatus").strings()[g],
              reference[g].linestatus);
    EXPECT_NEAR(result->column("sum_qty").doubles()[g], reference[g].sum_qty,
                1e-6 * reference[g].sum_qty);
    EXPECT_NEAR(result->column("sum_disc_price").doubles()[g],
                reference[g].sum_disc_price,
                1e-6 * reference[g].sum_disc_price);
    EXPECT_NEAR(result->column("sum_charge").doubles()[g],
                reference[g].sum_charge, 1e-6 * reference[g].sum_charge);
    EXPECT_NEAR(result->column("avg_qty").doubles()[g], reference[g].avg_qty,
                1e-6 * reference[g].avg_qty);
    EXPECT_NEAR(result->column("avg_disc").doubles()[g],
                reference[g].avg_disc, 1e-6);
    EXPECT_NEAR(result->column("count_order").doubles()[g],
                static_cast<double>(reference[g].count_order), 0.1);
  }
}

TEST_F(EngineE2ETest, Q12MatchesReference) {
  QuerySuiteOptions options;
  options.join_partitions = 4;
  auto response = RunOnLambda(BuildTpchQ12(options), "q12");
  // Four stages: lineitem scan, orders scan, join, final.
  EXPECT_EQ(response.raw.Get("stages").size(), 4u);

  auto result = engine_->FetchResult("q12");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExpectQ12MatchesReference(*result);
}

TEST_F(EngineE2ETest, BbQ3MatchesReference) {
  QuerySuiteOptions options;
  options.join_partitions = 4;
  auto response = RunOnLambda(BuildTpcxBbQ3(options), "bbq3");
  (void)response;
  auto result = engine_->FetchResult("bbq3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto clicks = WholeTable(clicks_, [&](int p) {
    return datagen::GenerateClickstreamsPartition(bb_, p, kPartitions);
  }, kPartitions);
  auto item = datagen::GenerateItemTable(bb_);
  const auto reference = ReferenceBbQ3(clicks, item, options);
  ASSERT_GT(reference.size(), 0u);
  ASSERT_EQ(result->rows(), static_cast<int64_t>(reference.size()));
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result->column("item_sk").ints()[i], reference[i].item_sk);
    EXPECT_NEAR(result->column("views").doubles()[i],
                static_cast<double>(reference[i].views), 0.1);
  }
}

TEST_F(EngineE2ETest, FaasAndIaasProduceIdenticalResults) {
  auto faas_response = RunOnLambda(BuildTpchQ6(), "q6-faas");
  auto faas_result = engine_->FetchResult("q6-faas");
  ASSERT_TRUE(faas_result.ok());

  faas::Ec2Fleet::Options fleet_options;
  fleet_options.instance_count = 8;
  fleet_options.slots_per_instance = 1;
  faas::Ec2Fleet fleet(&env_, &fabric_driver_, &registry_, fleet_options);
  fleet.Start(nullptr);
  Result<QueryResponse> outcome = Status::Internal("did not complete");
  engine_->Run(&fleet, BuildTpchQ6(), "q6-iaas",
               [&](Result<QueryResponse> r) { outcome = std::move(r); });
  env_.RunUntil(env_.now() + Minutes(30));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto iaas_result = engine_->FetchResult("q6-iaas");
  ASSERT_TRUE(iaas_result.ok());
  EXPECT_DOUBLE_EQ(faas_result->column("revenue").doubles()[0],
                   iaas_result->column("revenue").doubles()[0]);
  // Pre-provisioned IaaS has no coldstarts; FaaS does.
  EXPECT_GT(faas_response.runtime_ms, 0);
  EXPECT_GT(lambda_->stats().cold_starts, 0);
}

TEST_F(EngineE2ETest, WorkerStatsReported) {
  auto response = RunOnLambda(BuildTpchQ6(), "q6-stats");
  EXPECT_GT(response.cumulated_worker_ms, 0);
  EXPECT_GT(response.requests, 0);
  EXPECT_GT(response.peak_workers, 0);
  // The experiment meter saw the storage traffic.
  EXPECT_GT(meter_.RequestCount("s3"), 0);
  EXPECT_GT(meter_.StorageUsd(), 0);
}

TEST_F(EngineE2ETest, SyntheticModeRunsSameQueryAtScale) {
  // Upload a synthetic lineitem with SF1000-like geometry (scaled down to 40
  // partitions) and run the identical Q6 plan over it.
  const double max_shipdate =
      static_cast<double>(data::DaysSinceEpoch(1998, 12, 1));
  auto info = datagen::UploadSyntheticDataset(
      &store_, &catalog_, "lineitem_synth", datagen::LineitemSchema(), 40,
      6000000, 182 * kMiB, {{"l_shipdate", 0, max_shipdate}});
  ASSERT_TRUE(info.ok());
  QueryPlan plan = BuildTpchQ6();
  for (auto& pipeline : plan.pipelines) {
    for (auto& input : pipeline.inputs) {
      if (input.table == "lineitem") input.table = "lineitem_synth";
    }
  }
  auto response = RunOnLambda(plan, "q6-synth");
  EXPECT_GT(response.runtime_ms, 0);
  auto result = engine_->FetchResult("q6-synth");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->is_synthetic());
  // Shipdate pruning must have cut the read volume well below 40 x 182 MiB.
  const int64_t bytes_read = response.raw.Get("stages")
                                 .AsArray()[0]
                                 .GetInt("bytes_read");
  EXPECT_LT(bytes_read, 40LL * 182 * kMiB / 2);
  EXPECT_GT(bytes_read, 0);
}

TEST_F(EngineE2ETest, FinishedQueriesRetainNoInvocation) {
  // Q6 reads a table input, Q12 a table build input and shuffle writes, and
  // TPCx-BB Q3 a shuffle build input.
  faas::ComputePlatform* lambda = DeployProbed();
  QuerySuiteOptions suite;
  suite.join_partitions = 4;
  for (const QueryPlan& plan :
       {BuildTpchQ6(), BuildTpchQ12(suite), BuildTpcxBbQ3(suite)}) {
    EXPECT_GT(RunOn(lambda, plan, plan.query_name + "-retained").total_workers, 0);
  }
  env_.Run();

  EXPECT_EQ(probe_.Invocations(kCoordinatorFunction), 3u);
  EXPECT_GT(probe_.Invocations(kWorkerFunction), 10u);
  for (const char* function :
       {kCoordinatorFunction, kInvokerFunction, kWorkerFunction}) {
    EXPECT_EQ(probe_.Live(function), 0u) << function;
  }
}

TEST_F(EngineE2ETest, TwoLevelDispatchMatchesReference) {
  // Every multi-fragment stage fans out through invoker functions, two
  // fragments per invoker, so invoker batches are issued one after another.
  engine_->context()->two_level_threshold = 2;
  engine_->context()->invoker_fanout = 2;
  faas::ComputePlatform* lambda = DeployProbed();
  QuerySuiteOptions suite;
  suite.join_partitions = 4;
  EXPECT_GT(
      RunOn(lambda, BuildTpchQ12(suite), "q12-two-level").total_workers, 0);
  env_.Run();

  // The lineitem scan (3 fragments) and the join (4) each need two batches.
  EXPECT_GE(probe_.Invocations(kInvokerFunction), 4u);
  for (const char* function :
       {kCoordinatorFunction, kInvokerFunction, kWorkerFunction}) {
    EXPECT_EQ(probe_.Live(function), 0u) << function;
  }

  auto result = engine_->FetchResult("q12-two-level");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectQ12MatchesReference(*result);
}

}  // namespace
}  // namespace skyrise::engine
