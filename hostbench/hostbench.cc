/// Host-cost benchmark, one round: builds a fresh testbed (datagen, COF
/// encode, upload, deploy), drives one workload over it, checks every query
/// result against engine/reference.h, and prints one JSON line of raw host
/// measurements. run.py runs rounds in fresh processes, so each round's peak
/// RSS and live heap start from zero, and aggregates them into the metrics
/// BENCHMARK.json names.
///
///   hostbench --workload scan_agg|shuffle_join|serving --seed N
///             [--traced] [--out DIR] [--horizon-s S]
///
/// Untraced, the program is wired exactly as bench/serving.cc wires it.
/// Traced (--traced), the decorators of seams.h time every call into the
/// storage, faas and engine seams and the datagen generators; the
/// simulation is unchanged, which the printed sim_digest proves.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/random.h"
#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "datagen/tpcxbb.h"
#include "engine/engine.h"
#include "engine/queries.h"
#include "engine/reference.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "platform/report.h"
#include "probe.h"
#include "seams.h"
#include "serving/frontend.h"
#include "serving/workload.h"
#include "storage/object_store.h"

using namespace skyrise;
using hostbench::Seam;
using hostbench::ScopedSpan;
using hostbench::SpanRecorder;

namespace {

/// At this seed every input equals bench/serving.cc's (env seed 2024,
/// default generator seeds), so the serving report can be compared with the
/// one that binary writes.
constexpr uint64_t kBaselineSeed = 2024;

/// Untraced rounds set up this often, so the reported median is not one
/// cold sample.
constexpr size_t kSetups = 3;

enum class Kind { kServing, kClosedLoop };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  int partitions;
  double tpch_scale;
  /// Upload orders, clickstreams and item next to lineitem.
  bool join_tables;
  int partitions_per_worker;
  int join_partitions;
  /// Closed-loop queries per round.
  int queries;
  /// Serving: sim seconds of arrivals. bench/serving.cc's 240 makes a
  /// round too long to repeat often in a run; --horizon-s 240 reproduces it.
  int horizon_s;
};

// Sizes: see README.md ("Workloads") for why each exists.
constexpr WorkloadSpec kWorkloads[] = {
    {"scan_agg", Kind::kClosedLoop, 16, 0.02, false, 2, 8, 30, 0},
    {"shuffle_join", Kind::kClosedLoop, 16, 0.002, true, 1, 64, 15, 0},
    {"serving", Kind::kServing, 4, 0.002, true, 2, 4, 0, 20},
};

enum class QueryKind { kQ1, kQ6, kAdHoc, kQ12, kBbQ3 };

/// The testbed of bench/serving.cc, sized by the workload and seeded from
/// --seed. With a recorder, the decorators are installed at each seam.
struct Testbed {
  // The environment keeps bench/serving.cc's seed, so every --seed offers
  // the same simulated traffic and latency draws and varies the tables only.
  // Serving arrivals come from the environment's RNG: seeded per --seed,
  // their count would range over 946-1,588 queries (at 240 sim-s). Closed
  // loop, the latency draws would move simulated time per round by up to
  // 14%, and host_s_per_sim_hour with it.
  Testbed(const WorkloadSpec& spec, uint64_t seed, SpanRecorder* spans)
      : env(kBaselineSeed),
        fabric_driver(&env, &fabric),
        store(&env, storage::ObjectStore::StandardOptions()),
        queue(&env),
        tracer(&env) {
    tpch.scale_factor = spec.tpch_scale;
    tpch.seed += seed - kBaselineSeed;
    bb.scale_factor = 0.01;
    bb.seed += seed - kBaselineSeed;
    const int parts = spec.partitions;
    Upload(spans, "lineitem", datagen::LineitemSchema(), parts, [&](int p) {
      return datagen::GenerateLineitemPartition(tpch, p, parts);
    });
    if (spec.join_tables) {
      Upload(spans, "orders", datagen::OrdersSchema(), parts, [&](int p) {
        return datagen::GenerateOrdersPartition(tpch, p, parts);
      });
      Upload(spans, "clickstreams", datagen::ClickstreamsSchema(), parts,
             [&](int p) {
               return datagen::GenerateClickstreamsPartition(bb, p, parts);
             });
      Upload(spans, "item", datagen::ItemSchema(), 1,
             [&](int) { return datagen::GenerateItemTable(bb); });
    }

    engine::EngineContext context;
    context.env = &env;
    context.table_store = &store;
    context.shuffle_store = &store;
    if (spans != nullptr) {
      storage_probe = std::make_unique<hostbench::StorageProbe>(
          &store, spans, &counters);
      context.table_store = storage_probe.get();
      context.shuffle_store = storage_probe.get();
    }
    context.catalog = &catalog;
    context.queue = &queue;
    context.meter = &meter;
    context.partitions_per_worker = spec.partitions_per_worker;
    context.query_deadline = Minutes(30);
    engine = std::make_unique<engine::QueryEngine>(std::move(context));
    {
      ScopedSpan span(spans, Seam::kDeploy);
      SKYRISE_CHECK_OK(spans == nullptr ? engine->Deploy(&registry)
                                        : hostbench::DeployProbed(
                                              engine.get(), &registry, spans,
                                              &counters));
    }

    faas::LambdaPlatform::Options lambda_options;
    lambda_options.account_concurrency = 10000;
    lambda = std::make_unique<faas::LambdaPlatform>(&env, &fabric_driver,
                                                    &registry, lambda_options);
    lambda->set_observer(&tracer, &metrics);
    if (spans != nullptr) {
      faas_probe = std::make_unique<hostbench::FaasProbe>(lambda.get(), spans,
                                                          &counters);
    }
  }

  void Upload(SpanRecorder* spans, const std::string& name,
              const data::Schema& schema, int parts,
              const std::function<data::Chunk(int)>& generate) {
    ScopedSpan span(spans, Seam::kDatagenUpload);
    SKYRISE_CHECK_OK(datagen::UploadDataset(&store, name, schema, parts,
                                            [&](int p) {
                                              ScopedSpan gen(
                                                  spans,
                                                  Seam::kDatagenGenerate);
                                              return generate(p);
                                            })
                         .status());
  }

  /// The platform queries are submitted to: the decorator when traced.
  faas::ComputePlatform* platform() {
    return faas_probe != nullptr
               ? static_cast<faas::ComputePlatform*>(faas_probe.get())
               : lambda.get();
  }

  datagen::TpchConfig tpch;
  datagen::TpcxBbConfig bb;
  sim::SimEnvironment env;
  net::Fabric fabric;
  net::FabricDriver fabric_driver;
  storage::ObjectStore store;
  storage::QueueService queue;
  format::SyntheticFileCatalog catalog;
  pricing::CostMeter meter;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  faas::FunctionRegistry registry;
  hostbench::SeamCounters counters;
  std::unique_ptr<hostbench::StorageProbe> storage_probe;
  std::unique_ptr<engine::QueryEngine> engine;
  std::unique_ptr<faas::LambdaPlatform> lambda;
  std::unique_ptr<hostbench::FaasProbe> faas_probe;
};

/// bench/serving.cc's population, unchanged.
std::vector<serving::TenantSpec> Population() {
  using serving::ArrivalSpec;
  using serving::TenantSpec;
  using serving::WorkloadMix;

  TenantSpec interactive;
  interactive.policy.name = "interactive";
  interactive.policy.max_concurrent = 8;
  interactive.policy.weight = 2.0;
  interactive.arrival = ArrivalSpec::Poisson(2.0);
  interactive.mix = WorkloadMix::Interactive();

  TenantSpec analytics;
  analytics.policy.name = "analytics";
  analytics.policy.max_concurrent = 6;
  analytics.policy.weight = 1.0;
  analytics.arrival = ArrivalSpec::Poisson(1.0);
  analytics.mix = WorkloadMix::Analytics();

  TenantSpec batch;
  batch.policy.name = "batch";
  batch.policy.max_concurrent = 10;
  batch.policy.weight = 1.0;
  batch.arrival = ArrivalSpec::Bursty(1.0, 10.0, Seconds(10), Seconds(40));
  batch.mix = WorkloadMix::Uniform();

  return {interactive, analytics, batch};
}

/// bench/serving.cc's BENCH_serving.json document.
Json ServingDocument(const serving::ServingReport& report,
                     const faas::LambdaPlatform::Stats& stats) {
  Json doc = report.ToJson();
  Json fleet = Json::Object();
  fleet["invocations"] = stats.invocations;
  fleet["cold_starts"] = stats.cold_starts;
  fleet["warm_starts"] = stats.warm_starts;
  fleet["throttles"] = stats.throttles;
  fleet["sandboxes_created"] = stats.sandboxes_created;
  fleet["active_peak"] = stats.active_peak;
  fleet["warm_pool_peak"] = stats.warm_pool_peak;
  fleet["reaped_sandboxes"] = stats.reaped_sandboxes;
  doc["fleet"] = std::move(fleet);
  return doc;
}

/// FNV-1a over the fidelity outputs; printed as 16 hex digits.
class Digest {
 public:
  void Add(const std::string& text) {
    for (unsigned char c : text) {
      hash_ ^= c;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g;", value);
    Add(std::string(buf));
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash_);
    return buf;
  }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddFleet(Digest* digest, Testbed& bed) {
  const auto& stats = bed.lambda->stats();
  for (int64_t v : {stats.invocations, stats.cold_starts, stats.warm_starts,
                    stats.throttles, stats.errors, stats.sandboxes_created,
                    stats.active_peak, stats.warm_pool_peak}) {
    digest->Add(static_cast<double>(v));
  }
  digest->Add(static_cast<double>(bed.store.List("").size()));
  digest->Add(bed.tracer.attributed_usd_total());
}

double Ms(int64_t ns) { return 1e-6 * static_cast<double>(ns); }

std::string QueryId(int i) { return std::string("q").append(std::to_string(i)); }

bool Near(double got, double want) {
  return std::fabs(got - want) <= 1e-6 * std::max(1.0, std::fabs(want));
}

bool HasColumn(const data::Chunk& chunk, const char* name) {
  return chunk.schema().FieldIndex(name) >= 0;
}

/// Whole tables regenerated from the seeded generators, for the references.
struct ReferenceTables {
  ReferenceTables(const Testbed& bed, const WorkloadSpec& spec) {
    const int parts = spec.partitions;
    for (int p = 0; p < parts; ++p) {
      lineitem.Append(datagen::GenerateLineitemPartition(bed.tpch, p, parts));
      if (spec.join_tables) {
        orders.Append(datagen::GenerateOrdersPartition(bed.tpch, p, parts));
        clicks.Append(datagen::GenerateClickstreamsPartition(bed.bb, p, parts));
      }
    }
    if (spec.join_tables) item = datagen::GenerateItemTable(bed.bb);
  }
  data::Chunk lineitem = data::Chunk::Empty(datagen::LineitemSchema());
  data::Chunk orders = data::Chunk::Empty(datagen::OrdersSchema());
  data::Chunk clicks = data::Chunk::Empty(datagen::ClickstreamsSchema());
  data::Chunk item;
};

/// Compares one query result with engine/reference.h. The class is read
/// from the result's columns, so serving results need no bookkeeping.
bool CheckResult(const data::Chunk& result, const ReferenceTables& tables,
                 const engine::QuerySuiteOptions& suite) {
  if (HasColumn(result, "l_returnflag")) {
    const auto ref = engine::ReferenceQ1(tables.lineitem);
    if (result.rows() != static_cast<int64_t>(ref.size())) return false;
    for (size_t g = 0; g < ref.size(); ++g) {
      if (result.column("l_returnflag").strings()[g] != ref[g].returnflag ||
          result.column("l_linestatus").strings()[g] != ref[g].linestatus ||
          !Near(result.column("sum_qty").doubles()[g], ref[g].sum_qty) ||
          !Near(result.column("sum_disc_price").doubles()[g],
                ref[g].sum_disc_price) ||
          !Near(result.column("sum_charge").doubles()[g], ref[g].sum_charge) ||
          !Near(result.column("avg_qty").doubles()[g], ref[g].avg_qty) ||
          !Near(result.column("avg_disc").doubles()[g], ref[g].avg_disc) ||
          !Near(result.column("count_order").doubles()[g],
                static_cast<double>(ref[g].count_order))) {
        return false;
      }
    }
    return true;
  }
  if (HasColumn(result, "l_shipmode")) {
    const auto ref = engine::ReferenceQ12(tables.lineitem, tables.orders);
    if (result.rows() != static_cast<int64_t>(ref.size())) return false;
    for (size_t g = 0; g < ref.size(); ++g) {
      if (result.column("l_shipmode").strings()[g] != ref[g].shipmode ||
          !Near(result.column("high_line_count").doubles()[g],
                static_cast<double>(ref[g].high_line_count)) ||
          !Near(result.column("low_line_count").doubles()[g],
                static_cast<double>(ref[g].low_line_count))) {
        return false;
      }
    }
    return true;
  }
  if (HasColumn(result, "item_sk")) {
    const auto ref = engine::ReferenceBbQ3(tables.clicks, tables.item, suite);
    if (result.rows() != static_cast<int64_t>(ref.size())) return false;
    for (size_t i = 0; i < ref.size(); ++i) {
      if (result.column("item_sk").ints()[i] != ref[i].item_sk ||
          !Near(result.column("views").doubles()[i],
                static_cast<double>(ref[i].views))) {
        return false;
      }
    }
    return true;
  }
  if (HasColumn(result, "revenue")) {
    const auto ref = engine::ReferenceQ6(tables.lineitem);
    return result.rows() == 1 &&
           Near(result.column("revenue").doubles()[0], ref.revenue);
  }
  // Ad-hoc scans have no reference; a one-row aggregate must be present.
  return HasColumn(result, "metric") && result.rows() == 1;
}

/// Fetches a query's result and compares it with the reference.
bool ResultMatches(Testbed& bed, const std::string& id,
                   const ReferenceTables& tables,
                   const engine::QuerySuiteOptions& suite) {
  auto result = bed.engine->FetchResult(id);
  if (!result.ok()) return false;
  return CheckResult(*result, tables, suite);
}

/// Host and simulator readings bracketing the drive.
struct Reading {
  int64_t ns = 0;
  double cpu_s = 0;
  uint64_t allocs = 0;
  int64_t events = 0;
  SimTime sim_now = 0;
  hostbench::SeamTotals seams;  ///< Closed-span totals (traced rounds).

  static Reading Take(const Testbed& bed, const SpanRecorder* spans) {
    Reading r;
    if (spans != nullptr) r.seams = spans->totals();
    r.allocs = hostbench::AllocCount();
    r.cpu_s = hostbench::CpuSeconds();
    r.events = bed.env.events_processed();
    r.sim_now = bed.env.now();
    r.ns = hostbench::HostNowNs();
    return r;
  }
};

struct RoundResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> query_ms;  ///< Host ms per query (see DriveServing).
  std::vector<bool> query_ok;    ///< Closed loop: the query completed.
  Digest digest;
  int64_t shed = 0;
};

/// Drives the frontend exactly as one DriveUntil(now + 2 h) would, pausing
/// each simulated second to read the host clock. Open-loop queries overlap,
/// so no host time belongs to one query: each pause that finds queries
/// finished since the last sample adds one sample, the host time since then
/// over those queries.
void DriveServing(Testbed& bed, serving::ServingFrontend& frontend,
                  RoundResult* out) {
  const SimTime cap = bed.env.now() + Hours(2);
  const serving::AdmissionController& admission = frontend.admission();
  int64_t sampled = 0;
  int64_t sample_start_ns = hostbench::HostNowNs();
  while (!frontend.Done() && bed.env.now() < cap) {
    const SimTime pause = std::min(cap, bed.env.now() + Seconds(1));
    frontend.DriveUntil(pause);
    int64_t finished = 0;
    for (int t = 0; t < admission.tenant_count(); ++t) {
      finished += admission.stats(t).dispatched - admission.stats(t).in_flight;
    }
    if (finished > sampled) {
      const int64_t now_ns = hostbench::HostNowNs();
      out->query_ms.push_back(Ms(now_ns - sample_start_ns) /
                              static_cast<double>(finished - sampled));
      sampled = finished;
      sample_start_ns = now_ns;
    }
    // DriveUntil stops short of the pause only when the frontend is done or
    // no event is left.
    if (bed.env.now() < pause) break;
  }
}

/// One client, one query in flight: each query is submitted when the
/// previous one completes, and the loop steps the event queue until it does.
void DriveClosedLoop(Testbed& bed, const WorkloadSpec& spec,
                     const engine::QuerySuiteOptions& suite,
                     RoundResult* out) {
  std::vector<engine::QueryPlan> plans;
  Rng adhoc_rng = bed.env.ForkRng(0xAD0C);
  for (int i = 0; i < spec.queries; ++i) {
    if (spec.join_tables) {
      // One Q12 to two BB Q3s, so the pooled median falls inside the BB Q3
      // cluster instead of in the gap between two equal clusters.
      plans.push_back(i % 3 == 0 ? engine::BuildTpchQ12(suite)
                                 : engine::BuildTpcxBbQ3(suite));
    } else if (i % 3 == 0) {
      plans.push_back(engine::BuildTpchQ1());
    } else if (i % 3 == 1) {
      plans.push_back(engine::BuildTpchQ6());
    } else {
      plans.push_back(
          serving::BuildPlanFor(serving::QueryClass::kAdHoc, suite, &adhoc_rng));
    }
  }
  for (int i = 0; i < spec.queries; ++i) {
    const int64_t start_ns = hostbench::HostNowNs();
    const double usd_before = bed.tracer.attributed_usd_total();
    const double meter_before = bed.meter.TotalUsd();
    Result<engine::QueryResponse> outcome =
        Status::Internal("query did not complete");
    bool done = false;
    bed.engine->Run(bed.platform(), plans[static_cast<size_t>(i)],
                    QueryId(i),
                    [&](Result<engine::QueryResponse> r) {
                      outcome = std::move(r);
                      done = true;
                    });
    while (!done && bed.env.Step()) {
    }
    out->query_ms.push_back(1e-6 *
                            static_cast<double>(hostbench::HostNowNs() - start_ns));
    ++out->attempted;
    out->query_ok.push_back(outcome.ok());
    if (!outcome.ok()) {
      ++out->failed;
      out->digest.Add("failed");
      continue;
    }
    out->digest.Add(outcome->runtime_ms);
    out->digest.Add(bed.tracer.attributed_usd_total() - usd_before);
    out->digest.Add(bed.meter.TotalUsd() - meter_before);
  }
}

/// Verifies every completed closed-loop result; returns the number of
/// mismatches. A failed query has no result and is already counted failed.
int64_t VerifyClosedLoop(Testbed& bed, const WorkloadSpec& spec,
                         const engine::QuerySuiteOptions& suite,
                         const std::vector<bool>& query_ok) {
  const ReferenceTables tables(bed, spec);
  int64_t mismatches = 0;
  for (int i = 0; i < spec.queries; ++i) {
    if (!query_ok[static_cast<size_t>(i)]) continue;
    const std::string id = QueryId(i);
    if (!ResultMatches(bed, id, tables, suite)) {
      std::fprintf(stderr, "mismatch: %s\n", id.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

/// Verifies every serving result (keys `results/<query>/final.cof`).
int64_t VerifyServing(Testbed& bed, const WorkloadSpec& spec,
                      const engine::QuerySuiteOptions& suite,
                      int64_t completed) {
  const ReferenceTables tables(bed, spec);
  int64_t checked = 0;
  int64_t mismatches = 0;
  const std::string prefix = "results/";
  const std::string suffix = "/final.cof";
  for (const auto& info : bed.store.List(prefix)) {
    const std::string& key = info.key;
    if (key.size() <= prefix.size() + suffix.size() ||
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string id =
        key.substr(prefix.size(), key.size() - prefix.size() - suffix.size());
    ++checked;
    if (!ResultMatches(bed, id, tables, suite)) {
      std::fprintf(stderr, "mismatch: %s\n", id.c_str());
      ++mismatches;
    }
  }
  return mismatches + (checked == completed ? 0 : 1);
}

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = kBaselineSeed;
  bool traced = false;
  std::string out_dir = ".";
  int horizon_s = 0;  ///< 0: the workload's own.
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const WorkloadSpec& spec : kWorkloads) {
        if (name == spec.name) args->spec = &spec;
      }
      if (args->spec == nullptr) return false;
    } else if (arg == "--seed" && has_value) {
      args->seed = std::stoull(argv[++i]);
    } else if (arg == "--out" && has_value) {
      args->out_dir = argv[++i];
    } else if (arg == "--horizon-s" && has_value) {
      args->horizon_s = std::stoi(argv[++i]);
      if (args->horizon_s <= 0) return false;
    } else if (arg == "--traced") {
      args->traced = true;
    } else {
      return false;
    }
  }
  return args->spec != nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hostbench --workload scan_agg|shuffle_join|serving "
                 "--seed N [--traced] [--out DIR] [--horizon-s S]\n");
    return 2;
  }
  const WorkloadSpec& spec = *args.spec;
  std::unique_ptr<SpanRecorder> recorder;
  if (args.traced) recorder = std::make_unique<SpanRecorder>();
  SpanRecorder* spans = recorder.get();

  engine::QuerySuiteOptions suite;
  suite.join_partitions = spec.join_partitions;

  // Set up several times (untraced) and keep the last testbed; run.py
  // reports the median. A testbed that never drove frees what it allocated.
  std::unique_ptr<Testbed> testbed;
  std::vector<double> setup_s;
  do {
    testbed.reset();
    const int64_t setup_start = hostbench::HostNowNs();
    testbed = std::make_unique<Testbed>(spec, args.seed, spans);
    setup_s.push_back(1e-9 * static_cast<double>(hostbench::HostNowNs() -
                                                 setup_start));
  } while (spans == nullptr && setup_s.size() < kSetups);
  Testbed& bed = *testbed;

  RoundResult round;
  Reading before;
  Reading after;
  serving::ServingReport report;
  if (spec.kind == Kind::kServing) {
    serving::ServingOptions options;
    options.horizon =
        Seconds(args.horizon_s > 0 ? args.horizon_s : spec.horizon_s);
    options.global_max_concurrent = 24;
    options.suite = suite;
    options.fleet_probe = [&bed] {
      return static_cast<int64_t>(bed.lambda->active_executions());
    };
    serving::ServingFrontend frontend(&bed.env, bed.platform(),
                                      bed.engine.get(), &bed.tracer,
                                      &bed.metrics, options, Population());
    before = Reading::Take(bed, spans);
    frontend.Start();
    DriveServing(bed, frontend, &round);
    after = Reading::Take(bed, spans);
    {
      ScopedSpan span(spans, Seam::kServingReport);
      report = frontend.Report();
    }
    round.attempted = report.total_arrivals;
    round.shed = report.total_shed;
    round.failed = report.total_failed + report.total_shed;
    if (!frontend.Done() || report.total_dispatched != report.total_completed) {
      ++round.failed;
    }
    round.digest.Add(report.ToJson().Dump());
  } else {
    before = Reading::Take(bed, spans);
    DriveClosedLoop(bed, spec, suite, &round);
    after = Reading::Take(bed, spans);
  }
  // Memory readings belong to the drive, before verification allocates.
  const double peak_rss_mb = hostbench::PeakRssMb();
  const double heap_live_mb = hostbench::HeapLiveMb();
  const int64_t objects_end = static_cast<int64_t>(bed.store.List("").size());
  AddFleet(&round.digest, bed);

  const int64_t mismatches =
      spec.kind == Kind::kServing
          ? VerifyServing(bed, spec, suite, report.total_completed)
          : VerifyClosedLoop(bed, spec, suite, round.query_ok);

  const int64_t drive_ns = after.ns - before.ns;
  const double drive_s = 1e-9 * static_cast<double>(drive_ns);
  const double sim_s = ToSeconds(after.sim_now - before.sim_now);
  const auto& fleet = bed.lambda->stats();
  const int64_t queries = round.attempted;

  Json out = Json::Object();
  out["workload"] = spec.name;
  out["seed"] = static_cast<double>(args.seed);
  out["traced"] = args.traced;
  out["attempted"] = round.attempted;
  out["failed"] = round.failed;
  out["mismatches"] = mismatches;
  out["sim_digest"] = round.digest.Hex();
  Json setups = Json::Array();
  for (double s : setup_s) setups.Append(s);
  out["setup_s"] = std::move(setups);
  out["drive_s"] = drive_s;
  out["cpu_s"] = after.cpu_s - before.cpu_s;
  out["sim_s"] = sim_s;
  out["peak_rss_mb"] = peak_rss_mb;
  out["heap_live_mb_end"] = heap_live_mb;
  out["allocs"] = static_cast<double>(after.allocs - before.allocs);
  Json query_ms = Json::Array();
  for (double ms : round.query_ms) query_ms.Append(ms);
  out["query_ms"] = std::move(query_ms);

  if (spans != nullptr) {
    // Per-layer metrics: drive-time totals, plus the set-up seams (all
    // closed before the drive) and the serving report (after it).
    const hostbench::SeamTotals& setup = before.seams;
    const hostbench::SeamTotals drive = after.seams.Minus(before.seams);
    auto self_ms = [&](Seam seam) {
      return Ms(drive.self_ns[static_cast<int>(seam)]);
    };
    auto allocs = [&](std::initializer_list<Seam> seams) {
      int64_t total = 0;
      for (Seam seam : seams) total += drive.self_allocs[static_cast<int>(seam)];
      return static_cast<double>(total);
    };
    const auto& c = bed.counters;
    const int64_t residual_ns = drive_ns - drive.top_level_ns;
    const int64_t worker_attempts = std::max<int64_t>(1, c.worker_calls);
    const int64_t storage_done = c.storage_ok + c.storage_errors;

    Json layer = Json::Object();
    layer["storage.get.calls"] = c.storage_get_calls;
    layer["storage.put.calls"] = c.storage_put_calls;
    layer["storage.get.bytes"] = c.storage_get_bytes;
    layer["storage.put.bytes"] = c.storage_put_bytes;
    layer["storage.call_self_ms"] =
        self_ms(Seam::kStorageGet) + self_ms(Seam::kStoragePut);
    layer["storage.callback_ms"] = self_ms(Seam::kStorageCallback);
    layer["storage.errors"] = c.storage_errors;
    layer["storage.success_ratio"] =
        storage_done == 0 ? 1.0
                          : static_cast<double>(c.storage_ok) /
                                static_cast<double>(storage_done);
    layer["storage.objects_end"] = objects_end;
    layer["storage.allocs"] =
        allocs({Seam::kStorageGet, Seam::kStoragePut, Seam::kStorageCallback});
    layer["faas.invocations"] = fleet.invocations;
    layer["faas.invocations_per_host_s"] =
        static_cast<double>(fleet.invocations) / drive_s;
    layer["faas.cold_starts"] = fleet.cold_starts;
    layer["faas.warm_fraction"] =
        fleet.invocations == 0 ? 0.0
                               : static_cast<double>(fleet.warm_starts) /
                                     static_cast<double>(fleet.invocations);
    layer["faas.invoke_self_ms"] = self_ms(Seam::kFaasInvoke);
    layer["faas.response_cb_ms"] = self_ms(Seam::kFaasResponse);
    layer["faas.errors"] = c.faas_errors;
    layer["faas.payload_bytes"] = c.faas_payload_bytes;
    layer["faas.allocs"] = allocs({Seam::kFaasInvoke, Seam::kFaasResponse});
    layer["engine.coordinator.handler_ms"] = self_ms(Seam::kCoordinator);
    layer["engine.worker.handler_ms"] = self_ms(Seam::kWorker);
    layer["engine.invoker.handler_ms"] = self_ms(Seam::kInvoker);
    layer["engine.worker.calls"] = c.worker_calls;
    layer["engine.wasted_attempt_ratio"] =
        static_cast<double>(c.wasted_worker_attempts) /
        static_cast<double>(worker_attempts);
    layer["engine.allocs"] =
        allocs({Seam::kCoordinator, Seam::kWorker, Seam::kInvoker});
    const int64_t events = after.events - before.events;
    layer["sim.events"] = events;
    layer["sim.sim_s"] = sim_s;
    layer["sim.residual_ms"] = Ms(residual_ns);
    layer["sim.residual_ns_per_event"] =
        static_cast<double>(residual_ns) /
        static_cast<double>(std::max<int64_t>(1, events));
    layer["sim.allocs"] = static_cast<double>(after.allocs - before.allocs) -
                          static_cast<double>(drive.top_level_allocs);
    layer["obs.spans_end"] = static_cast<double>(bed.tracer.spans().size());
    layer["obs.spans_per_query"] =
        static_cast<double>(bed.tracer.spans().size()) /
        static_cast<double>(std::max<int64_t>(1, queries));
    layer["obs.open_spans_end"] = bed.tracer.open_spans();
    layer["serving.report_ms"] =
        Ms(spans->totals().self_ns[static_cast<int>(Seam::kServingReport)]);
    layer["serving.shed"] = round.shed;
    layer["datagen.generate_ms"] =
        Ms(setup.self_ns[static_cast<int>(Seam::kDatagenGenerate)]);
    layer["datagen.encode_upload_ms"] =
        Ms(setup.self_ns[static_cast<int>(Seam::kDatagenUpload)]);
    layer["setup.deploy_ms"] =
        Ms(setup.self_ns[static_cast<int>(Seam::kDeploy)]);
    layer["bench.self_ms"] = self_ms(Seam::kBench);
    out["layers"] = std::move(layer);

    // What run.py re-derives from the written span file: the drive window
    // on the file's clock, and the recorder's own per-seam self times and
    // residual for that window.
    out["open_spans"] = spans->open_spans();
    Json window = Json::Array();
    window.Append(static_cast<double>(before.ns - spans->origin_ns()));
    window.Append(static_cast<double>(after.ns - spans->origin_ns()));
    out["drive_window_ns"] = std::move(window);
    Json self_ns = Json::Object();
    for (int s = 0; s < hostbench::kSeamCount; ++s) {
      if (drive.self_ns[s] != 0) {
        self_ns[hostbench::SeamName(static_cast<Seam>(s))] =
            static_cast<double>(drive.self_ns[s]);
      }
    }
    out["drive_self_ns"] = std::move(self_ns);
    out["residual_ns"] = static_cast<double>(residual_ns);

    const std::string path = args.out_dir + "/" + spec.name + ".spans.json";
    out["spans_file"] = path;
    out["spans_written"] = spans->WriteChromeTrace(path);
  } else if (spec.kind == Kind::kServing) {
    const std::string path = args.out_dir + "/serving.report.json";
    out["report_file"] = path;
    out["report_written"] = platform::WriteResultFile(
                                path, ServingDocument(report, fleet))
                                .ok();
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
