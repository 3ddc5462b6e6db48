#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/string_util.h"

namespace skyrise::engine {

namespace {

using data::Chunk;
using data::Column;
using data::DataType;
using data::Schema;

/// Builds a compound key string from the named columns of `chunk` at `row`.
std::string RowKey(const Chunk& chunk, const std::vector<int>& key_indices,
                   size_t row) {
  std::string key;
  for (int idx : key_indices) {
    const Column& col = chunk.column(static_cast<size_t>(idx));
    switch (col.type()) {
      case DataType::kString:
        key += col.strings()[row];
        break;
      case DataType::kDouble:
        key += StrFormat("%.17g", col.doubles()[row]);
        break;
      default:
        key += std::to_string(col.ints()[row]);
    }
    key.push_back('\x1f');
  }
  return key;
}

Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names) {
  std::vector<int> out;
  for (const auto& name : names) {
    const int idx = schema.FieldIndex(name);
    if (idx < 0) return Status::NotFound("no column: " + name);
    out.push_back(idx);
  }
  return out;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// --- Per-operator schema propagation. ---

Result<Schema> ProjectSchema(const OperatorSpec& op, const Schema& in) {
  std::vector<data::Field> fields;
  for (const auto& [name, expr] : op.projections) {
    if (expr->kind == Expr::Kind::kColumn) {
      const int idx = in.FieldIndex(expr->column);
      if (idx < 0) return Status::NotFound("no column: " + expr->column);
      fields.push_back(data::Field{name, in.field(static_cast<size_t>(idx)).type});
    } else {
      fields.push_back(data::Field{name, DataType::kDouble});
    }
  }
  return Schema(std::move(fields));
}

Result<Schema> AggSchema(const OperatorSpec& op, const Schema& in) {
  std::vector<data::Field> fields;
  for (const auto& name : op.group_by) {
    const int idx = in.FieldIndex(name);
    if (idx < 0) return Status::NotFound("no group column: " + name);
    fields.push_back(in.field(static_cast<size_t>(idx)));
  }
  for (const auto& agg : op.aggregates) {
    fields.push_back(data::Field{
        agg.as,
        agg.func == "count" ? DataType::kInt64 : DataType::kDouble});
  }
  return Schema(std::move(fields));
}

Result<Schema> JoinSchema(const OperatorSpec& op, const Schema& probe,
                          const Schema& build) {
  std::vector<data::Field> fields = probe.fields();
  for (const auto& name : op.build_columns) {
    const int idx = build.FieldIndex(name);
    if (idx < 0) return Status::NotFound("no build column: " + name);
    fields.push_back(build.field(static_cast<size_t>(idx)));
  }
  return Schema(std::move(fields));
}

Schema SessionizeSchema() {
  return Schema({{"item_sk", DataType::kInt64}});
}

// --- Stateless per-morsel operator kernels. ---

Result<Chunk> ApplySort(const OperatorSpec& op, Chunk&& in,
                        CostAccumulator* cost) {
  const double n = static_cast<double>(std::max<int64_t>(in.rows(), 1));
  cost->AddNs(n * std::log2(n + 1) * cost->model().sort_ns_per_row_log);
  if (in.is_synthetic()) return std::move(in);
  std::vector<int> key_indices;
  SKYRISE_ASSIGN_OR_RETURN(key_indices,
                           ResolveColumns(in.schema(), op.sort_keys));
  std::vector<uint32_t> order(static_cast<size_t>(in.rows()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < key_indices.size(); ++k) {
      const Column& col = in.column(static_cast<size_t>(key_indices[k]));
      const bool asc =
          k < op.sort_ascending.size() ? op.sort_ascending[k] : true;
      int cmp = 0;
      switch (col.type()) {
        case DataType::kString:
          cmp = col.strings()[a].compare(col.strings()[b]);
          break;
        case DataType::kDouble:
          cmp = col.doubles()[a] < col.doubles()[b]
                    ? -1
                    : (col.doubles()[a] > col.doubles()[b] ? 1 : 0);
          break;
        default:
          cmp = col.ints()[a] < col.ints()[b]
                    ? -1
                    : (col.ints()[a] > col.ints()[b] ? 1 : 0);
      }
      if (cmp != 0) return asc ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  std::vector<Column> columns;
  for (size_t c = 0; c < in.num_columns(); ++c) {
    columns.push_back(in.column(c).Filter(order));
  }
  return Chunk(in.schema(), std::move(columns));
}

/// TPCx-BB Q3 style sessionization UDF: for every purchase of an item in the
/// target category, emit the same-category items the user viewed within the
/// preceding window. Requires columns: wcs_click_date, wcs_user_sk,
/// wcs_item_sk, wcs_sales_sk, i_category_id.
Result<Chunk> ApplySessionize(const OperatorSpec& op, Chunk&& in,
                              CostAccumulator* cost) {
  cost->AddNs(static_cast<double>(in.rows()) * cost->model().udf_ns_per_row);
  const Schema out_schema = SessionizeSchema();
  if (in.is_synthetic()) {
    return Chunk::Synthetic(out_schema,
                            static_cast<int64_t>(std::llround(
                                static_cast<double>(in.rows()) *
                                op.udf_output_ratio)));
  }
  std::vector<int> indices;
  SKYRISE_ASSIGN_OR_RETURN(
      indices,
      ResolveColumns(in.schema(), {"wcs_click_date", "wcs_user_sk",
                                   "wcs_item_sk", "wcs_sales_sk",
                                   "i_category_id"}));
  const auto& date = in.column(static_cast<size_t>(indices[0])).ints();
  const auto& user = in.column(static_cast<size_t>(indices[1])).ints();
  const auto& item = in.column(static_cast<size_t>(indices[2])).ints();
  const auto& sale = in.column(static_cast<size_t>(indices[3])).ints();
  const auto& category = in.column(static_cast<size_t>(indices[4])).ints();

  // Group row indices per user, sort each user's clicks by date.
  std::map<int64_t, std::vector<size_t>> by_user;
  for (size_t row = 0; row < static_cast<size_t>(in.rows()); ++row) {
    by_user[user[row]].push_back(row);
  }
  Chunk out = Chunk::Empty(out_schema);
  auto& out_items = out.column(0).ints();
  for (auto& [user_sk, rows] : by_user) {
    std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
      return date[a] < date[b];
    });
    for (size_t i = 0; i < rows.size(); ++i) {
      const size_t purchase = rows[i];
      if (sale[purchase] <= 0 || category[purchase] != op.target_category) {
        continue;
      }
      // Views on strictly earlier days within the window. Day-granular
      // semantics keep the result independent of intra-day row order, which
      // is arbitrary after a shuffle.
      for (size_t view : rows) {
        if (sale[view] != 0) continue;
        if (category[view] != op.target_category) continue;
        const int64_t gap = date[purchase] - date[view];
        if (gap < 1 || gap > op.session_window_days) continue;
        out_items.push_back(item[view]);
      }
    }
  }
  return out;
}

// --- Streaming operator states. ---
//
// Each operator in the chain is an OperatorState: Push() consumes one morsel
// and either returns the transformed morsel (streaming operators) or absorbs
// it into accumulated state (pipeline breakers and sinks, which return
// nullopt). Flush() emits a breaker's accumulated result at end-of-stream.
// StateBytes() reports accumulated-state size for the MemoryTracker.

class OperatorState {
 public:
  virtual ~OperatorState() = default;
  [[nodiscard]] virtual Result<std::optional<Chunk>> Push(Chunk&& in) = 0;
  [[nodiscard]] virtual Result<std::optional<Chunk>> Flush() {
    return std::optional<Chunk>();
  }
  virtual bool is_sink() const { return false; }
  virtual std::vector<FragmentOutput> TakeOutputs() { return {}; }
  virtual int64_t StateBytes() const { return 0; }
};

/// Streaming filter with pooled output: the selection vector and the output
/// chunk's column buffers are reused across morsels (the spent input goes
/// back to the pool in WalkFrom).
class FilterOp final : public OperatorState {
 public:
  FilterOp(const OperatorSpec& op, CostAccumulator* cost,
           data::ChunkPool* pool)
      : op_(op), cost_(cost), pool_(pool) {}
  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    Chunk out;
    SKYRISE_ASSIGN_OR_RETURN(out, FilterChunk(op_.predicate, op_.selectivity,
                                              in, cost_, pool_, &selection_));
    return std::optional<Chunk>(std::move(out));
  }

 private:
  const OperatorSpec& op_;
  CostAccumulator* cost_;
  data::ChunkPool* pool_;
  std::vector<uint32_t> selection_;
};

/// Streaming projection that moves pass-through columns out of the input
/// instead of copying them; only computed expressions materialize new
/// buffers. Expressions are evaluated before any column is moved, since they
/// may read columns the projection also passes through.
class ProjectOp final : public OperatorState {
 public:
  ProjectOp(const OperatorSpec& op, CostAccumulator* cost)
      : op_(op), cost_(cost) {}
  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    if (!resolved_) {
      SKYRISE_ASSIGN_OR_RETURN(out_schema_, ProjectSchema(op_, in.schema()));
      resolved_ = true;
    }
    cost_->AddNs(static_cast<double>(in.rows()) *
                 static_cast<double>(op_.projections.size()) *
                 cost_->model().project_ns_per_row_col);
    if (in.is_synthetic()) {
      return std::optional<Chunk>(Chunk::Synthetic(out_schema_, in.rows()));
    }
    std::vector<Column> computed;
    for (const auto& [name, expr] : op_.projections) {
      if (expr->kind == Expr::Kind::kColumn) continue;
      Column col(DataType::kDouble);
      SKYRISE_RETURN_IF_ERROR(EvalNumericInto(*expr, in, &col.doubles()));
      computed.push_back(std::move(col));
    }
    std::vector<Column> columns;
    columns.reserve(op_.projections.size());
    moved_to_.assign(in.num_columns(), -1);
    size_t next_computed = 0;
    for (const auto& [name, expr] : op_.projections) {
      if (expr->kind != Expr::Kind::kColumn) {
        columns.push_back(std::move(computed[next_computed++]));
        continue;
      }
      const size_t idx =
          static_cast<size_t>(in.schema().FieldIndex(expr->column));
      if (moved_to_[idx] >= 0) {
        // Duplicate reference: copy from the already-built output column,
        // never from the moved-from input.
        columns.push_back(columns[static_cast<size_t>(moved_to_[idx])]);
      } else {
        moved_to_[idx] = static_cast<int>(columns.size());
        columns.push_back(std::move(in.column(idx)));
      }
    }
    return std::optional<Chunk>(Chunk(out_schema_, std::move(columns)));
  }

 private:
  const OperatorSpec& op_;
  CostAccumulator* cost_;
  bool resolved_ = false;
  Schema out_schema_;
  std::vector<int> moved_to_;
};

/// Pipeline breaker: accumulates group states across morsels in row order
/// (so floating-point accumulation matches the materialized path bit for
/// bit) and emits the sorted group table on Flush().
class AggOp final : public OperatorState {
 public:
  AggOp(const OperatorSpec& op, CostAccumulator* cost)
      : op_(op), cost_(cost) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    cost_->AddNs(static_cast<double>(in.rows()) *
                 cost_->model().agg_ns_per_row);
    if (!resolved_) {
      SKYRISE_ASSIGN_OR_RETURN(out_schema_, AggSchema(op_, in.schema()));
      SKYRISE_ASSIGN_OR_RETURN(group_indices_,
                               ResolveColumns(in.schema(), op_.group_by));
      std::vector<data::Field> key_fields;
      for (int idx : group_indices_) {
        key_fields.push_back(in.schema().field(static_cast<size_t>(idx)));
      }
      key_chunk_ = Chunk::Empty(Schema(std::move(key_fields)));
      resolved_ = true;
    }
    if (in.is_synthetic()) {
      synthetic_result_ =
          Chunk::Synthetic(out_schema_, std::min(in.rows(), op_.groups_hint));
      return std::optional<Chunk>();
    }
    std::vector<std::vector<double>> arguments;
    for (const auto& agg : op_.aggregates) {
      if (agg.func == "count" && !agg.expr) {
        arguments.emplace_back();
        continue;
      }
      std::vector<double> values;
      SKYRISE_ASSIGN_OR_RETURN(values, EvalNumeric(*agg.expr, in));
      arguments.push_back(std::move(values));
    }
    const size_t rows = static_cast<size_t>(in.rows());
    for (size_t row = 0; row < rows; ++row) {
      std::string key = RowKey(in, group_indices_, row);
      auto [it, inserted] = groups_.try_emplace(std::move(key));
      GroupState& state = it->second;
      if (inserted) {
        state.key_row = static_cast<size_t>(key_chunk_.rows());
        for (size_t g = 0; g < group_indices_.size(); ++g) {
          key_chunk_.column(g).AppendFrom(
              in.column(static_cast<size_t>(group_indices_[g])), row);
        }
        state.accumulators.resize(op_.aggregates.size());
        for (size_t a = 0; a < op_.aggregates.size(); ++a) {
          const auto& func = op_.aggregates[a].func;
          if (func == "min") {
            state.accumulators[a] = std::numeric_limits<double>::infinity();
          } else if (func == "max") {
            state.accumulators[a] = -std::numeric_limits<double>::infinity();
          } else {
            state.accumulators[a] = 0;
          }
        }
        state_bytes_ += static_cast<int64_t>(it->first.size()) + 48 +
                        8 * static_cast<int64_t>(op_.aggregates.size());
      }
      for (size_t a = 0; a < op_.aggregates.size(); ++a) {
        const auto& func = op_.aggregates[a].func;
        if (func == "count") {
          state.accumulators[a] += 1;
        } else {
          const double v = arguments[a][row];
          if (func == "sum") {
            state.accumulators[a] += v;
          } else if (func == "min") {
            state.accumulators[a] = std::min(state.accumulators[a], v);
          } else if (func == "max") {
            state.accumulators[a] = std::max(state.accumulators[a], v);
          } else {
            return Status::InvalidArgument("unknown aggregate: " + func);
          }
        }
      }
    }
    return std::optional<Chunk>();
  }

  Result<std::optional<Chunk>> Flush() override {
    state_bytes_ = 0;
    if (synthetic_result_.has_value()) {
      return std::optional<Chunk>(std::move(*synthetic_result_));
    }
    if (!resolved_) return std::optional<Chunk>();
    Chunk out = Chunk::Empty(out_schema_);
    // Deterministic output order: sort group keys.
    std::vector<std::pair<std::string, const GroupState*>> ordered;
    ordered.reserve(groups_.size());
    // skyrise-check: allow(unordered-iteration) — collected then sorted below.
    for (const auto& [key, state] : groups_) ordered.emplace_back(key, &state);
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [key, state] : ordered) {
      for (size_t g = 0; g < group_indices_.size(); ++g) {
        out.column(g).AppendFrom(key_chunk_.column(g), state->key_row);
      }
      for (size_t a = 0; a < op_.aggregates.size(); ++a) {
        Column& col = out.column(group_indices_.size() + a);
        if (op_.aggregates[a].func == "count") {
          col.AppendInt(
              static_cast<int64_t>(std::llround(state->accumulators[a])));
        } else {
          col.AppendDouble(state->accumulators[a]);
        }
      }
    }
    groups_.clear();
    return std::optional<Chunk>(std::move(out));
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  struct GroupState {
    size_t key_row = 0;  ///< Representative row in key_chunk_.
    std::vector<double> accumulators;
  };

  const OperatorSpec& op_;
  CostAccumulator* cost_;
  bool resolved_ = false;
  Schema out_schema_;
  std::vector<int> group_indices_;
  Chunk key_chunk_;  ///< One row per group, insertion order.
  std::unordered_map<std::string, GroupState> groups_;
  std::optional<Chunk> synthetic_result_;
  int64_t state_bytes_ = 0;
};

/// Streaming probe over a build table constructed once on the first morsel.
/// The build side is a pipeline breaker by construction (it arrives fully
/// materialized); the probe side streams.
class JoinOp final : public OperatorState {
 public:
  JoinOp(const OperatorSpec& op, const Chunk* build, CostAccumulator* cost)
      : op_(op), build_(build), cost_(cost) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    if (!resolved_) {
      SKYRISE_ASSIGN_OR_RETURN(out_schema_,
                               JoinSchema(op_, in.schema(), build_->schema()));
      SKYRISE_ASSIGN_OR_RETURN(probe_indices_,
                               ResolveColumns(in.schema(), op_.probe_keys));
      resolved_ = true;
    }
    if (!build_charged_) {
      cost_->AddNs(static_cast<double>(build_->rows()) *
                   cost_->model().join_build_ns_per_row);
      build_charged_ = true;
    }
    cost_->AddNs(static_cast<double>(in.rows()) *
                 cost_->model().join_probe_ns_per_row);
    if (in.is_synthetic() || build_->is_synthetic()) {
      return std::optional<Chunk>(Chunk::Synthetic(
          out_schema_, static_cast<int64_t>(std::llround(
                           static_cast<double>(in.rows()) *
                           op_.join_multiplier))));
    }
    if (!table_built_) {
      SKYRISE_ASSIGN_OR_RETURN(build_indices_,
                               ResolveColumns(build_->schema(), op_.build_keys));
      SKYRISE_ASSIGN_OR_RETURN(
          carried_, ResolveColumns(build_->schema(), op_.build_columns));
      const size_t build_rows = static_cast<size_t>(build_->rows());
      table_.reserve(build_rows);
      for (size_t row = 0; row < build_rows; ++row) {
        std::string key = RowKey(*build_, build_indices_, row);
        state_bytes_ += static_cast<int64_t>(key.size()) + 24;
        table_.emplace(std::move(key), row);
      }
      table_built_ = true;
    }
    Chunk out = Chunk::Empty(out_schema_);
    const size_t probe_rows = static_cast<size_t>(in.rows());
    for (size_t row = 0; row < probe_rows; ++row) {
      auto [begin, end] = table_.equal_range(RowKey(in, probe_indices_, row));
      for (auto it = begin; it != end; ++it) {
        for (size_t c = 0; c < in.num_columns(); ++c) {
          out.column(c).AppendFrom(in.column(c), row);
        }
        for (size_t c = 0; c < carried_.size(); ++c) {
          out.column(in.num_columns() + c)
              .AppendFrom(build_->column(static_cast<size_t>(carried_[c])),
                          it->second);
        }
      }
    }
    return std::optional<Chunk>(std::move(out));
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  const OperatorSpec& op_;
  const Chunk* build_;
  CostAccumulator* cost_;
  bool resolved_ = false;
  bool build_charged_ = false;
  bool table_built_ = false;
  Schema out_schema_;
  std::vector<int> probe_indices_, build_indices_, carried_;
  std::unordered_multimap<std::string, size_t> table_;
  int64_t state_bytes_ = 0;
};

/// Pipeline breaker: buffers the full input, sorts on Flush(). The n·log n
/// cost is charged once over the whole input, as in the materialized path.
class SortOp final : public OperatorState {
 public:
  SortOp(const OperatorSpec& op, CostAccumulator* cost)
      : op_(op), cost_(cost) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    state_bytes_ += in.ByteSize();
    if (!acc_.has_value()) {
      acc_.emplace(std::move(in));
    } else {
      acc_->Append(in);
    }
    return std::optional<Chunk>();
  }

  Result<std::optional<Chunk>> Flush() override {
    state_bytes_ = 0;
    if (!acc_.has_value()) return std::optional<Chunk>();
    Chunk out;
    SKYRISE_ASSIGN_OR_RETURN(out, ApplySort(op_, std::move(*acc_), cost_));
    acc_.reset();
    return std::optional<Chunk>(std::move(out));
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  const OperatorSpec& op_;
  CostAccumulator* cost_;
  std::optional<Chunk> acc_;
  int64_t state_bytes_ = 0;
};

class LimitOp final : public OperatorState {
 public:
  explicit LimitOp(const OperatorSpec& op) : op_(op) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    if (op_.limit < 0) return std::optional<Chunk>(std::move(in));
    const int64_t remaining = op_.limit - emitted_;
    if (in.rows() <= remaining) {
      emitted_ += in.rows();
      return std::optional<Chunk>(std::move(in));
    }
    Chunk out = in.Slice(0, remaining);
    emitted_ = op_.limit;
    return std::optional<Chunk>(std::move(out));
  }

 private:
  const OperatorSpec& op_;
  int64_t emitted_ = 0;
};

/// Pipeline breaker: the sessionization UDF needs every click of a user, so
/// it buffers the full input and runs once on Flush().
class SessionizeOp final : public OperatorState {
 public:
  SessionizeOp(const OperatorSpec& op, CostAccumulator* cost)
      : op_(op), cost_(cost) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    state_bytes_ += in.ByteSize();
    if (!acc_.has_value()) {
      acc_.emplace(std::move(in));
    } else {
      acc_->Append(in);
    }
    return std::optional<Chunk>();
  }

  Result<std::optional<Chunk>> Flush() override {
    state_bytes_ = 0;
    if (!acc_.has_value()) return std::optional<Chunk>();
    Chunk out;
    SKYRISE_ASSIGN_OR_RETURN(out,
                             ApplySessionize(op_, std::move(*acc_), cost_));
    acc_.reset();
    return std::optional<Chunk>(std::move(out));
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  const OperatorSpec& op_;
  CostAccumulator* cost_;
  std::optional<Chunk> acc_;
  int64_t state_bytes_ = 0;
};

/// Barriers are awaited by the worker's I/O state machine (they poll a
/// shared queue); no data transformation here.
class BarrierOp final : public OperatorState {
 public:
  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    return std::optional<Chunk>(std::move(in));
  }
};

/// Sink: hash-partitions each morsel's rows (in row order, so partition
/// contents are identical to the materialized path) into per-partition
/// output chunks.
class PartitionSink final : public OperatorState {
 public:
  PartitionSink(const OperatorSpec& op, CostAccumulator* cost)
      : op_(op), cost_(cost) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    cost_->AddNs(static_cast<double>(in.rows()) *
                 cost_->model().partition_ns_per_row);
    if (in.is_synthetic()) {
      synthetic_ = true;
      synthetic_rows_ += in.rows();
      schema_ = in.schema();
      return std::optional<Chunk>();
    }
    if (!initialized_) {
      SKYRISE_ASSIGN_OR_RETURN(
          key_indices_, ResolveColumns(in.schema(), op_.partition_keys));
      schema_ = in.schema();
      parts_.reserve(static_cast<size_t>(op_.partition_count));
      for (int p = 0; p < op_.partition_count; ++p) {
        parts_.push_back(Chunk::Empty(schema_));
      }
      initialized_ = true;
    }
    state_bytes_ += in.ByteSize();
    const size_t rows = static_cast<size_t>(in.rows());
    for (size_t row = 0; row < rows; ++row) {
      const uint64_t h = HashString(RowKey(in, key_indices_, row));
      Chunk& dst = parts_[h % static_cast<uint64_t>(op_.partition_count)];
      for (size_t c = 0; c < in.num_columns(); ++c) {
        dst.column(c).AppendFrom(in.column(c), row);
      }
    }
    return std::optional<Chunk>();
  }

  bool is_sink() const override { return true; }

  std::vector<FragmentOutput> TakeOutputs() override {
    std::vector<FragmentOutput> outputs;
    const int parts = op_.partition_count;
    if (synthetic_ || !initialized_) {
      const int64_t rows = synthetic_rows_;
      for (int p = 0; p < parts; ++p) {
        const int64_t share = rows * (p + 1) / parts - rows * p / parts;
        outputs.push_back(
            FragmentOutput{p, Chunk::Synthetic(schema_, share)});
      }
      return outputs;
    }
    for (int p = 0; p < parts; ++p) {
      outputs.push_back(FragmentOutput{
          p, std::move(parts_[static_cast<size_t>(p)])});
    }
    return outputs;
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  const OperatorSpec& op_;
  CostAccumulator* cost_;
  bool initialized_ = false;
  bool synthetic_ = false;
  int64_t synthetic_rows_ = 0;
  Schema schema_;
  std::vector<int> key_indices_;
  std::vector<Chunk> parts_;
  int64_t state_bytes_ = 0;
};

/// Sink: concatenates morsels (in arrival order) into the terminal result.
class CollectSink final : public OperatorState {
 public:
  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    state_bytes_ += in.ByteSize();
    if (!acc_.has_value()) {
      acc_.emplace(std::move(in));
    } else {
      acc_->Append(in);
    }
    return std::optional<Chunk>();
  }

  bool is_sink() const override { return true; }

  std::vector<FragmentOutput> TakeOutputs() override {
    std::vector<FragmentOutput> outputs;
    outputs.push_back(FragmentOutput{
        -1, acc_.has_value() ? std::move(*acc_) : Chunk()});
    return outputs;
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  std::optional<Chunk> acc_;
  int64_t state_bytes_ = 0;
};

}  // namespace

// --- FragmentPipeline. ---

struct FragmentPipeline::Impl {
  PipelineSpec spec;
  std::vector<Chunk> builds;
  CostAccumulator* cost = nullptr;
  MemoryTracker local_memory;
  MemoryTracker* memory = nullptr;
  data::ChunkPool local_pool;
  data::ChunkPool* pool = nullptr;
  int64_t morsel_rows = 0;
  Status init = Status::OK();
  std::vector<std::unique_ptr<OperatorState>> ops;
  std::vector<int64_t> op_state_bytes;
  OperatorState* sink = nullptr;
  bool accumulating = false;
  std::optional<Chunk> pending;
  int64_t pending_bytes = 0;
  std::optional<data::Schema> stream_schema;
  std::optional<Chunk> tail;
  int64_t batches = 0;

  Status BuildOps();
  void SyncState(size_t i);
  Status WalkFrom(size_t start, Chunk&& chunk);
};

Status FragmentPipeline::Impl::BuildOps() {
  for (const auto& op : spec.ops) {
    if (op.op == "filter") {
      ops.push_back(std::make_unique<FilterOp>(op, cost, pool));
    } else if (op.op == "project") {
      ops.push_back(std::make_unique<ProjectOp>(op, cost));
    } else if (op.op == "hash_agg") {
      ops.push_back(std::make_unique<AggOp>(op, cost));
    } else if (op.op == "hash_join") {
      const size_t build_index = static_cast<size_t>(op.build_input - 1);
      if (build_index >= builds.size()) {
        return Status::InvalidArgument("missing join build input");
      }
      ops.push_back(std::make_unique<JoinOp>(op, &builds[build_index], cost));
      // Synthetic cardinality hints are nonlinear: joins against a synthetic
      // build must see the whole probe stream at once.
      if (builds[build_index].is_synthetic()) accumulating = true;
    } else if (op.op == "sort") {
      ops.push_back(std::make_unique<SortOp>(op, cost));
    } else if (op.op == "limit") {
      ops.push_back(std::make_unique<LimitOp>(op));
    } else if (op.op == "bb_sessionize") {
      ops.push_back(std::make_unique<SessionizeOp>(op, cost));
    } else if (op.op == "barrier") {
      ops.push_back(std::make_unique<BarrierOp>());
    } else if (op.op == "partition_write") {
      ops.push_back(std::make_unique<PartitionSink>(op, cost));
      sink = ops.back().get();
      break;  // Operators past the first sink are unreachable.
    } else if (op.op == "collect") {
      ops.push_back(std::make_unique<CollectSink>());
      sink = ops.back().get();
      break;
    } else {
      return Status::InvalidArgument("unknown operator: " + op.op);
    }
  }
  op_state_bytes.assign(ops.size(), 0);
  return Status::OK();
}

void FragmentPipeline::Impl::SyncState(size_t i) {
  const int64_t now = ops[i]->StateBytes();
  const int64_t delta = now - op_state_bytes[i];
  if (delta >= 0) {
    memory->Add(delta);
  } else {
    memory->Release(-delta);
  }
  op_state_bytes[i] = now;
}

Status FragmentPipeline::Impl::WalkFrom(size_t start, Chunk&& chunk) {
  if (start == 0) ++batches;
  Chunk current = std::move(chunk);
  for (size_t i = start; i < ops.size(); ++i) {
    const int64_t in_bytes = current.ByteSize();
    memory->Add(in_bytes);
    Result<std::optional<Chunk>> out = ops[i]->Push(std::move(current));
    SyncState(i);
    memory->Release(in_bytes);
    if (!out.ok()) return out.status();
    // Donate the spent input back to the pool. Operators that consumed it by
    // move left an empty shell behind, which Release drops; operators that
    // copied (or filtered) out of it leave warm buffers to recycle.
    const bool absorbed = !out->has_value();
    // skyrise-check: allow(use-after-move) — Release accepts moved-from chunks.
    pool->Release(std::move(current));
    if (absorbed) return Status::OK();
    current = std::move(**out);
  }
  // No terminal operator: collect the stream as the result.
  const int64_t bytes = current.ByteSize();
  if (!tail.has_value()) {
    tail.emplace(std::move(current));
  } else {
    tail->Append(current);
    pool->Release(std::move(current));
  }
  memory->Add(bytes);
  return Status::OK();
}

FragmentPipeline::FragmentPipeline(const PipelineSpec& pipeline,
                                   std::vector<data::Chunk> builds,
                                   CostAccumulator* cost,
                                   MemoryTracker* memory, int64_t morsel_rows,
                                   data::ChunkPool* pool)
    : impl_(std::make_unique<Impl>()) {
  impl_->spec = pipeline;
  impl_->builds = std::move(builds);
  impl_->cost = cost;
  impl_->memory = memory != nullptr ? memory : &impl_->local_memory;
  impl_->pool = pool != nullptr ? pool : &impl_->local_pool;
  impl_->morsel_rows = morsel_rows;
  impl_->accumulating = morsel_rows < 0;
  for (const auto& build : impl_->builds) {
    impl_->memory->Add(build.ByteSize());
  }
  impl_->init = impl_->BuildOps();
}

FragmentPipeline::~FragmentPipeline() = default;

Status FragmentPipeline::Push(data::Chunk&& morsel) {
  Impl& im = *impl_;
  if (!im.init.ok()) return im.init;
  if (!im.stream_schema.has_value()) im.stream_schema = morsel.schema();
  // Synthetic cardinality hints round per batch; fall back to one batch.
  if (morsel.is_synthetic()) im.accumulating = true;
  if (im.accumulating) {
    const int64_t bytes = morsel.ByteSize();
    if (!im.pending.has_value()) {
      im.pending.emplace(std::move(morsel));
    } else {
      im.pending->Append(morsel);
    }
    im.pending_bytes += bytes;
    im.memory->Add(bytes);
    return Status::OK();
  }
  if (im.morsel_rows > 0 && morsel.rows() > im.morsel_rows) {
    const int64_t total = morsel.rows();
    for (int64_t offset = 0; offset < total; offset += im.morsel_rows) {
      const int64_t count = std::min(im.morsel_rows, total - offset);
      Chunk piece = im.pool->AcquirePrepared(morsel.schema());
      morsel.SliceInto(offset, count, &piece);
      SKYRISE_RETURN_IF_ERROR(im.WalkFrom(0, std::move(piece)));
    }
    im.pool->Release(std::move(morsel));
    return Status::OK();
  }
  return im.WalkFrom(0, std::move(morsel));
}

Result<std::vector<FragmentOutput>> FragmentPipeline::Finish() {
  Impl& im = *impl_;
  if (!im.init.ok()) return im.init;
  if (im.pending.has_value()) {
    im.memory->Release(im.pending_bytes);
    im.pending_bytes = 0;
    Chunk whole = std::move(*im.pending);
    im.pending.reset();
    SKYRISE_RETURN_IF_ERROR(im.WalkFrom(0, std::move(whole)));
  } else if (im.batches == 0) {
    // Zero-morsel stream: run the chain once over an empty batch so schema
    // propagation and breaker flushes match the materialized path.
    SKYRISE_RETURN_IF_ERROR(im.WalkFrom(
        0, Chunk::Empty(im.stream_schema.value_or(data::Schema()))));
  }
  for (size_t i = 0; i < im.ops.size(); ++i) {
    Result<std::optional<Chunk>> flushed = im.ops[i]->Flush();
    im.SyncState(i);
    if (!flushed.ok()) return flushed.status();
    if (flushed->has_value()) {
      SKYRISE_RETURN_IF_ERROR(im.WalkFrom(i + 1, std::move(**flushed)));
    }
  }
  if (im.sink != nullptr) return im.sink->TakeOutputs();
  std::vector<FragmentOutput> outputs;
  Chunk result = im.tail.has_value()
                     ? std::move(*im.tail)
                     : Chunk::Empty(im.stream_schema.value_or(data::Schema()));
  outputs.push_back(FragmentOutput{-1, std::move(result)});
  return outputs;
}

int64_t FragmentPipeline::batches() const { return impl_->batches; }

Result<Chunk> FilterChunk(const ExprPtr& predicate, double selectivity,
                          const Chunk& in, CostAccumulator* cost,
                          data::ChunkPool* pool,
                          std::vector<uint32_t>* selection) {
  cost->AddNs(static_cast<double>(in.rows()) *
              cost->model().filter_ns_per_row);
  if (in.is_synthetic()) {
    return Chunk::Synthetic(
        in.schema(), static_cast<int64_t>(std::llround(
                         static_cast<double>(in.rows()) * selectivity)));
  }
  SKYRISE_RETURN_IF_ERROR(EvalPredicateInto(*predicate, in, selection));
  Chunk out = pool->AcquirePrepared(in.schema());
  for (size_t c = 0; c < in.num_columns(); ++c) {
    in.column(c).FilterInto(*selection, &out.column(c));
  }
  return out;
}

Result<std::vector<FragmentOutput>> ExecuteFragment(
    const PipelineSpec& pipeline, data::Chunk&& stream,
    std::vector<data::Chunk> builds, CostAccumulator* cost) {
  FragmentPipeline executor(pipeline, std::move(builds), cost,
                            /*memory=*/nullptr, /*morsel_rows=*/-1);
  SKYRISE_RETURN_IF_ERROR(executor.Push(std::move(stream)));
  return executor.Finish();
}

}  // namespace skyrise::engine
