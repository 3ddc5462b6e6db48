#include "engine/worker.h"

#include <deque>
#include <memory>
#include <optional>

#include "common/string_util.h"

namespace skyrise::engine {

namespace {

using data::Chunk;
using storage::Blob;

/// One pending ranged read; large column chunks are split into
/// `range_chunk_bytes` pieces issued in parallel, at most
/// `max_concurrent_requests` in flight (Section 3.2).
struct ReadOp {
  std::string key;
  int64_t offset = 0;
  int64_t length = 0;
  size_t buffer = 0;  ///< Result slot.
  int64_t buffer_offset = 0;
};

/// One encoded output object awaiting its PUT.
struct PendingWrite {
  std::string key;
  Blob blob;
};

/// Executes one fragment as a streaming morsel pipeline: build-side inputs
/// (pipeline inputs 1..n) load one after another, then the streamed input 0
/// is read one row group at a time and pushed through a FragmentPipeline
/// while further ranged reads are in flight — I/O and compute overlap on the
/// sim event loop. Each input kind has exactly one reader, parameterised by
/// the input index: decoded chunks go to Deliver() and end of input to
/// InputDone(). Chunks are delivered in deterministic (file, row group) /
/// upstream-fragment order regardless of which reads straggled or were
/// retried, so result bytes are reproducible under faults.
class WorkerTask : public std::enable_shared_from_this<WorkerTask> {
 public:
  WorkerTask(EngineContext* ec,
             std::shared_ptr<faas::FunctionContext> fctx)
      : ec_(ec), fctx_(std::move(fctx)), cost_(ec->cost_model) {}

  void Run() {
    start_ = Now();
    tracer_ = fctx_->tracer();
    metrics_ = fctx_->metrics();
    const Json& payload = fctx_->payload();
    query_id_ = payload.GetString("query_id");
    fragment_ = static_cast<int>(payload.GetInt("fragment"));
    barrier_participants_ =
        static_cast<int>(payload.GetInt("barrier_participants", 0));
    // Phase spans live on the "worker" track under the platform's execution
    // span; storage request spans hang off the phase that issued them.
    if (tracer_ != nullptr) {
      input_span_ = tracer_->Begin("worker", "input", "engine", fctx_->span());
      tracer_->SetArg(input_span_, "fragment", Json(fragment_));
    }
    auto parsed = PipelineSpec::FromJson(payload.Get("pipeline"));
    if (!parsed.ok()) {
      Fail(parsed.status());
      return;
    }
    pipeline_ = std::move(parsed).ValueUnsafe();
    for (const auto& input : payload.Get("inputs").AsArray()) {
      WorkerInputAssignment assignment;
      for (const auto& f : input.Get("files").AsArray()) {
        assignment.files.push_back(
            TableFileAssignment{f.GetString("key"), f.GetInt("size")});
      }
      assignment.upstream_fragments =
          static_cast<int>(input.GetInt("upstream_fragments"));
      assignments_.push_back(std::move(assignment));
    }
    if (assignments_.size() != pipeline_.inputs.size()) {
      Fail(Status::InvalidArgument("input assignment mismatch"));
      return;
    }
    table_client_ = std::make_unique<storage::RetryClient>(
        ec_->env, ec_->table_store, ec_->retry,
        0x9000 + static_cast<uint64_t>(fragment_));
    shuffle_client_ = std::make_unique<storage::RetryClient>(
        ec_->env, ec_->shuffle_store, ec_->retry,
        0xA000 + static_cast<uint64_t>(fragment_));
    storage_ctx_.nic = fctx_->nic();
    storage_ctx_.fabric = fctx_->fabric();
    storage_ctx_.meter = ec_->meter;
    storage_ctx_.tracer = tracer_;
    storage_ctx_.span = input_span_;
    storage_ctx_.metrics = metrics_;
    // Overload robustness: the query deadline rides in the payload; the
    // retry-token pool is this query's coordinator-published grant, looked
    // up by query id (queries interleave on a shared context). A missing
    // entry means the coordinator already finished — this is a zombie
    // attempt and runs without a pooled budget.
    storage_ctx_.deadline =
        Deadline::At(fctx_->payload().GetInt("deadline_us", 0));
    const auto* grants = ec_->FindGrants(query_id_);
    storage_ctx_.retry_budget =
        grants != nullptr ? grants->retry_budget : nullptr;
    storage_ctx_.breaker = ec_->storage_breaker;
    loaded_.resize(pipeline_.inputs.size());
    LoadBuildInput(1);
  }

 private:
  SimTime Now() const { return ec_->env->now(); }

  void Fail(Status status) {
    if (done_) return;
    done_ = true;
    if (tracer_ != nullptr) {
      // Close whichever phase is still open (EndWith no-ops on the rest).
      tracer_->EndWith(input_span_, "error");
      tracer_->EndWith(compute_span_, "error");
      tracer_->EndWith(output_span_, "error");
    }
    fctx_->FinishError(std::move(status));
  }

  // --- Inputs: build-side inputs 1..n load one after another, then the
  // barrier, then input 0 streams through the pipeline. Inputs never load
  // concurrently, so every reader's state below belongs to `input_`. ---

  void LoadBuildInput(size_t index) {
    if (index >= pipeline_.inputs.size()) {
      MaybeBarrier();
      return;
    }
    ReadInput(index);
  }

  void ReadInput(size_t index) {
    input_ = index;
    if (pipeline_.inputs[index].type == InputSpec::Type::kTable) {
      StreamNextFile(0);
    } else {
      StreamShuffleInput();
    }
  }

  /// The one delivery point: input 0 feeds the pipeline, a build input
  /// accumulates into its table.
  void Deliver(Chunk&& chunk) {
    if (input_ == 0) {
      Enqueue(std::move(chunk));
      return;
    }
    std::optional<Chunk>& table = loaded_[input_];
    if (!table.has_value()) {
      table = std::move(chunk);
      return;
    }
    table->Append(chunk);
    chunk_pool_.Release(std::move(chunk));
  }

  /// The one continuation at end of input.
  void InputDone() {
    if (input_ == 0) {
      StreamEof();
    } else {
      LoadBuildInput(input_ + 1);
    }
  }

  // --- Table input: footer fetch -> prune -> split ranged reads, decoded
  // and delivered in (file, row group) order while later reads are in
  // flight. ---

  /// Fetches + parses a file footer (or resolves it via the synthetic
  /// catalog) and hands the FileMeta to `then`. Failures finish the task.
  void FetchFooter(const TableFileAssignment& file,
                   std::function<void(format::FileMeta)> then) {
    const int64_t fetch =
        std::min<int64_t>(file.size, format::kFooterFetchSize);
    auto self = shared_from_this();
    table_client_->GetRange(
        file.key, file.size - fetch, fetch, storage_ctx_,
        [self, file, fetch, then](Result<Blob> result) {
          if (self->done_) return;
          if (!result.ok()) {
            self->Fail(result.status());
            return;
          }
          self->bytes_read_ += result->size();
          auto meta = ResolveFooter(self->ec_->catalog, file.key, *result,
                                    file.size - fetch, file.size);
          if (!meta.ok()) {
            self->Fail(meta.status());
            return;
          }
          then(std::move(meta).ValueUnsafe());
        });
  }

  /// Row-group pruning on min/max statistics (selection pushdown).
  std::vector<size_t> PruneRowGroups(const InputSpec& spec,
                                     const format::FileMeta& meta) const {
    std::vector<size_t> survivors;
    for (size_t rg = 0; rg < meta.row_groups.size(); ++rg) {
      bool keep = true;
      if (spec.pushdown) {
        const auto& groups = meta.row_groups[rg];
        keep = RangeMayMatch(
            *spec.pushdown,
            [&](const std::string& column, double* min, double* max) {
              const int idx = meta.schema.FieldIndex(column);
              if (idx < 0) return false;
              const auto& cm = groups.columns[static_cast<size_t>(idx)];
              if (!cm.min.has_value() || !cm.max.has_value()) return false;
              *min = *cm.min;
              *max = *cm.max;
              return true;
            });
      }
      if (keep) survivors.push_back(rg);
    }
    return survivors;
  }

  std::vector<std::string> ProjectionFor(const InputSpec& spec,
                                         const format::FileMeta& meta) const {
    std::vector<std::string> projection = spec.columns;
    if (projection.empty()) {
      for (const auto& f : meta.schema.fields()) projection.push_back(f.name);
    }
    return projection;
  }

  /// Applies the input's pushdown predicate to a freshly decoded row group.
  /// Synthetic pruning already reduced groups; the residual selectivity is
  /// relative to the pruned set.
  [[nodiscard]] Result<Chunk> ApplyPushdown(const InputSpec& spec,
                                            Chunk&& chunk) {
    if (!spec.pushdown) return std::move(chunk);
    Result<Chunk> out =
        FilterChunk(spec.pushdown, spec.pushdown_selectivity, chunk, &cost_,
                    &chunk_pool_, &pushdown_selection_);
    // The kernel copies surviving rows out; the decoded source buffers go
    // back to the pool for the next row group.
    chunk_pool_.Release(std::move(chunk));
    return out;
  }

  void StreamNextFile(size_t file_index) {
    const std::vector<TableFileAssignment>& files =
        assignments_[input_].files;
    if (file_index >= files.size()) {
      InputDone();
      return;
    }
    const TableFileAssignment& file = files[file_index];
    auto self = shared_from_this();
    FetchFooter(file, [self, file_index](format::FileMeta meta) {
      self->StreamFileColumns(file_index, std::move(meta));
    });
  }

  void StreamFileColumns(size_t file_index, format::FileMeta meta) {
    const InputSpec& spec = pipeline_.inputs[input_];
    stream_meta_ = std::move(meta);
    stream_projection_ = ProjectionFor(spec, stream_meta_);
    stream_survivors_ = PruneRowGroups(spec, stream_meta_);
    // Record the input's schema even if every row group is pruned: a build
    // table keeps it, input 0 runs the chain once over it (StreamEof).
    auto projected = stream_meta_.schema.Select(stream_projection_);
    if (!projected.ok()) {
      Fail(projected.status());
      return;
    }
    if (!loaded_[input_].has_value()) {
      loaded_[input_] = Chunk::Empty(*projected);
    }
    stream_file_index_ = file_index;
    if (stream_survivors_.empty()) {
      StreamNextFile(file_index + 1);
      return;
    }
    const size_t cols = stream_projection_.size();
    const std::string& key = assignments_[input_].files[file_index].key;
    stream_buffers_.assign(stream_survivors_.size() * cols, std::string());
    rg_pieces_.assign(stream_survivors_.size(), 0);
    rg_ready_.assign(stream_survivors_.size(), false);
    rg_cursor_ = 0;
    for (size_t slot = 0; slot < stream_survivors_.size(); ++slot) {
      auto ranges = format::RowGroupColumnRanges(
          stream_meta_, stream_survivors_[slot], stream_projection_);
      if (!ranges.ok()) {
        Fail(ranges.status());
        return;
      }
      for (size_t c = 0; c < cols; ++c) {
        ReadOp op{key, (*ranges)[c].offset, (*ranges)[c].size, slot * cols + c,
                  0};
        // Split oversized ranges into parallel chunked requests.
        while (op.length > ec_->range_chunk_bytes) {
          ReadOp piece = op;
          piece.length = ec_->range_chunk_bytes;
          stream_pending_.push_back(piece);
          ++rg_pieces_[slot];
          op.offset += ec_->range_chunk_bytes;
          op.buffer_offset += ec_->range_chunk_bytes;
          op.length -= ec_->range_chunk_bytes;
        }
        if (op.length > 0) {
          stream_pending_.push_back(op);
          ++rg_pieces_[slot];
        }
      }
      if (rg_pieces_[slot] == 0) rg_ready_[slot] = true;
    }
    AdvanceRowGroupCursor();
    PumpStreamReads();
  }

  void PumpStreamReads() {
    auto self = shared_from_this();
    while (stream_outstanding_ < ec_->max_concurrent_requests &&
           !stream_pending_.empty()) {
      ReadOp op = stream_pending_.front();
      stream_pending_.pop_front();
      ++stream_outstanding_;
      table_client_->GetRange(op.key, op.offset, op.length, storage_ctx_,
                              [self, op](Result<Blob> result) {
                                self->OnStreamRead(op, std::move(result));
                              });
    }
  }

  void OnStreamRead(const ReadOp& op, Result<Blob> result) {
    --stream_outstanding_;
    if (done_) return;
    if (!result.ok()) {
      Fail(result.status());
      return;
    }
    bytes_read_ += result->size();
    cost_.AddNs(static_cast<double>(result->size()) *
                cost_.model().decode_ns_per_byte);
    if (!result->is_synthetic()) {
      std::string& buffer = stream_buffers_[op.buffer];
      const size_t end = static_cast<size_t>(op.buffer_offset) +
                         result->data().size();
      if (buffer.size() < end) buffer.resize(end);
      result->data().copy(buffer.data() + op.buffer_offset,
                          result->data().size());
    }
    const size_t slot = op.buffer / stream_projection_.size();
    if (--rg_pieces_[slot] == 0) {
      rg_ready_[slot] = true;
      AdvanceRowGroupCursor();
    }
    if (!done_) PumpStreamReads();
  }

  /// Decodes + delivers every ready row group at the front of the in-order
  /// cursor, then moves to the next file once this one is fully decoded.
  void AdvanceRowGroupCursor() {
    const size_t cols = stream_projection_.size();
    while (rg_cursor_ < stream_survivors_.size() && rg_ready_[rg_cursor_]) {
      std::vector<std::string> column_bytes;
      column_bytes.reserve(cols);
      for (size_t c = 0; c < cols; ++c) {
        column_bytes.push_back(
            std::move(stream_buffers_[rg_cursor_ * cols + c]));
      }
      Chunk decoded = chunk_pool_.AcquireRaw();
      const Status decode_status = format::DecodeRowGroupInto(
          stream_meta_, stream_survivors_[rg_cursor_], stream_projection_,
          column_bytes, &decoded);
      if (!decode_status.ok()) {
        Fail(decode_status);
        return;
      }
      auto filtered =
          ApplyPushdown(pipeline_.inputs[input_], std::move(decoded));
      if (!filtered.ok()) {
        Fail(filtered.status());
        return;
      }
      ++rg_cursor_;
      Deliver(std::move(filtered).ValueUnsafe());
    }
    if (!stream_survivors_.empty() &&
        rg_cursor_ == stream_survivors_.size()) {
      stream_survivors_.clear();
      rg_cursor_ = 0;
      StreamNextFile(stream_file_index_ + 1);
    }
  }

  // --- Shuffle input: bounded GETs, decoded per upstream fragment and
  // delivered in fragment order as the completion cursor advances. ---

  void StreamShuffleInput() {
    const int count = assignments_[input_].upstream_fragments;
    if (count == 0) {
      InputDone();
      return;
    }
    shuffle_slots_.assign(static_cast<size_t>(count), {});
    shuffle_done_.assign(static_cast<size_t>(count), false);
    shuffle_cursor_ = 0;
    shuffle_next_ = 0;
    PumpShuffleStream();
  }

  void PumpShuffleStream() {
    const int count = static_cast<int>(shuffle_slots_.size());
    const int upstream = pipeline_.inputs[input_].upstream_pipeline;
    auto self = shared_from_this();
    while (shuffle_outstanding_ < ec_->max_concurrent_requests &&
           shuffle_next_ < count) {
      const int uf = shuffle_next_++;
      ++shuffle_outstanding_;
      const std::string key = ShuffleKey(query_id_, upstream, uf, fragment_);
      shuffle_client_->Get(
          key, storage_ctx_, [self, key, uf](Result<Blob> result) {
            --self->shuffle_outstanding_;
            if (self->done_) return;
            if (!result.ok()) {
              self->Fail(result.status());
              return;
            }
            self->bytes_read_ += result->size();
            if (!self->DecodeShuffleObject(
                    key, *result,
                    &self->shuffle_slots_[static_cast<size_t>(uf)])) {
              return;
            }
            self->shuffle_done_[static_cast<size_t>(uf)] = true;
            if (self->AdvanceShuffleCursor() && !self->done_) {
              self->PumpShuffleStream();
            }
          });
    }
  }

  /// Delivers every decoded upstream fragment at the front of the in-order
  /// cursor. Returns false once the input is complete and handed on.
  bool AdvanceShuffleCursor() {
    const int count = static_cast<int>(shuffle_slots_.size());
    while (shuffle_cursor_ < count &&
           shuffle_done_[static_cast<size_t>(shuffle_cursor_)]) {
      std::vector<Chunk> slot =
          std::move(shuffle_slots_[static_cast<size_t>(shuffle_cursor_)]);
      for (auto& chunk : slot) Deliver(std::move(chunk));
      ++shuffle_cursor_;
    }
    if (shuffle_cursor_ < count) return true;
    InputDone();
    return false;
  }

  bool DecodeShuffleObject(const std::string& key, const Blob& blob,
                           std::vector<Chunk>* out) {
    auto resolved = ResolveFooter(ec_->catalog, key, blob, 0, blob.size());
    if (!resolved.ok()) {
      Fail(resolved.status());
      return false;
    }
    const format::FileMeta meta = std::move(resolved).ValueUnsafe();
    cost_.AddNs(static_cast<double>(blob.size()) *
                cost_.model().decode_ns_per_byte);
    std::vector<std::string> projection;
    for (const auto& f : meta.schema.fields()) projection.push_back(f.name);
    for (size_t rg = 0; rg < meta.row_groups.size(); ++rg) {
      std::vector<std::string> column_bytes;
      for (size_t c = 0; c < projection.size(); ++c) {
        if (meta.synthetic) {
          column_bytes.emplace_back();
        } else {
          const auto& cm = meta.row_groups[rg].columns[c];
          column_bytes.push_back(blob.data().substr(
              static_cast<size_t>(cm.offset), static_cast<size_t>(cm.size)));
        }
      }
      Chunk decoded = chunk_pool_.AcquireRaw();
      const Status decode_status =
          format::DecodeRowGroupInto(meta, rg, projection, column_bytes,
                                     &decoded);
      if (!decode_status.ok()) {
        Fail(decode_status);
        return false;
      }
      out->push_back(std::move(decoded));
    }
    if (meta.row_groups.empty()) {
      out->push_back(Chunk::Empty(meta.schema));
    }
    return true;
  }

  // --- Barrier, then the streamed input drives the pipeline. ---

  void MaybeBarrier() {
    bool has_barrier = false;
    for (const auto& op : pipeline_.ops) {
      if (op.op == "barrier") has_barrier = true;
    }
    if (!has_barrier || ec_->queue == nullptr || barrier_participants_ <= 0) {
      StartStream();
      return;
    }
    const std::string name =
        StrFormat("%s/p%d/barrier", query_id_.c_str(), pipeline_.id);
    obs::SpanId barrier_span = obs::kNoSpan;
    if (tracer_ != nullptr) {
      barrier_span = tracer_->Begin("worker", "barrier", "engine",
                                    input_span_);
    }
    auto self = shared_from_this();
    ec_->queue->Arrive(name, barrier_participants_, [self, barrier_span] {
      if (self->tracer_ != nullptr) self->tracer_->End(barrier_span);
      self->StartStream();
    });
  }

  void StartStream() {
    std::vector<Chunk> builds;
    for (size_t i = 1; i < loaded_.size(); ++i) {
      builds.push_back(loaded_[i].has_value() ? std::move(*loaded_[i])
                                              : Chunk::Empty(data::Schema()));
    }
    executor_ = std::make_unique<FragmentPipeline>(
        pipeline_, std::move(builds), &cost_, &memory_, ec_->morsel_rows,
        &chunk_pool_);
    if (pipeline_.inputs.empty()) {
      StreamEof();
      return;
    }
    ReadInput(0);
  }

  // --- The compute pump: one morsel per Compute hop, charged as the
  // cumulative cost delta so total CPU equals the materialized path. ---

  void Enqueue(Chunk&& morsel) {
    ++morsels_seen_;
    morsels_.push_back(std::move(morsel));
    PumpCompute();
  }

  void StreamEof() {
    // Zero-morsel streams (e.g. every row group pruned) still run the chain
    // once over an empty batch with the projected schema, as the
    // materialized path did.
    if (morsels_seen_ == 0 && !loaded_.empty() && loaded_[0].has_value()) {
      morsels_.push_back(std::move(*loaded_[0]));
    }
    stream_eof_ = true;
    input_done_ = Now();
    if (tracer_ != nullptr) {
      tracer_->SetArg(input_span_, "bytes_read", Json(bytes_read_));
      tracer_->End(input_span_);
      compute_span_ = tracer_->Begin("worker", "compute", "engine",
                                     fctx_->span());
      tracer_->SetArg(compute_span_, "fragment", Json(fragment_));
      storage_ctx_.span = compute_span_;
    }
    PumpCompute();
  }

  void PumpCompute() {
    if (done_ || computing_ || finished_ || executor_ == nullptr) return;
    if (morsels_.empty()) {
      if (stream_eof_) FinishPipeline();
      return;
    }
    Chunk morsel = std::move(morsels_.front());
    morsels_.pop_front();
    Status pushed = executor_->Push(std::move(morsel));
    if (!pushed.ok()) {
      Fail(std::move(pushed));
      return;
    }
    computing_ = true;
    auto self = shared_from_this();
    ChargeCompute([self] {
      self->computing_ = false;
      self->PumpCompute();
    });
  }

  /// Sleeps for the not-yet-charged share of the accumulated CPU cost. The
  /// cumulative-delta scheme telescopes: total charged time equals
  /// Duration(total cost) regardless of how many batches it was split over.
  void ChargeCompute(std::function<void()> then) {
    const SimDuration total = cost_.Duration(fctx_->config().vcpus());
    const SimDuration delta = total - charged_;
    charged_ = total;
    fctx_->Compute(delta, std::move(then));
  }

  void FinishPipeline() {
    finished_ = true;
    auto outputs = executor_->Finish();
    if (!outputs.ok()) {
      Fail(outputs.status());
      return;
    }
    auto outs = std::make_shared<std::vector<FragmentOutput>>(
        std::move(*outputs));
    auto self = shared_from_this();
    ChargeCompute([self, outs] {
      self->compute_done_ = self->Now();
      if (self->tracer_ != nullptr) {
        self->tracer_->SetArg(self->compute_span_, "batches",
                              Json(self->executor_->batches()));
        self->tracer_->SetArg(self->compute_span_, "morsels",
                              Json(self->morsels_seen_));
        self->tracer_->SetArg(self->compute_span_, "peak_memory_bytes",
                              Json(self->memory_.peak()));
        self->tracer_->End(self->compute_span_);
        self->output_span_ = self->tracer_->Begin("worker", "output", "engine",
                                                  self->fctx_->span());
        self->tracer_->SetArg(self->output_span_, "fragment",
                              Json(self->fragment_));
        self->storage_ctx_.span = self->output_span_;
      }
      self->WriteOutputs(*outs);
    });
  }

  void WriteOutputs(const std::vector<FragmentOutput>& outputs) {
    if (outputs.empty()) {
      Respond();
      return;
    }
    // Encode all outputs (CPU already accounted), then write them with
    // bounded concurrency — an unbounded PUT volley against a cold bucket
    // would immediately exceed the write-IOPS envelope for every worker.
    for (const auto& output : outputs) {
      std::string key;
      if (output.partition < 0) {
        key = ResultKey(query_id_);
      } else {
        key = ShuffleKey(query_id_, pipeline_.id, fragment_,
                         output.partition);
      }
      Blob blob;
      if (output.chunk.is_synthetic()) {
        const int64_t encoded =
            std::max<int64_t>(static_cast<int64_t>(
                                  static_cast<double>(output.chunk.ByteSize()) *
                                  0.55),
                              64) +
            format::kCofTrailerSize;
        format::FileMeta meta = format::BuildSyntheticFileMeta(
            output.chunk.schema(), output.chunk.rows(), encoded, 1 << 20, {});
        ec_->catalog->Register(key, std::move(meta));
        blob = Blob::Synthetic(encoded);
      } else {
        std::string bytes =
            format::WriteCofFile(output.chunk.schema(), {output.chunk});
        cost_.AddNs(static_cast<double>(bytes.size()) *
                    cost_.model().encode_ns_per_byte);
        blob = Blob::FromString(std::move(bytes));
      }
      bytes_written_ += blob.size();
      rows_out_ += output.chunk.rows();
      writes_.push_back(PendingWrite{std::move(key), std::move(blob)});
    }
    PumpWrites();
  }

  void PumpWrites() {
    auto self = shared_from_this();
    while (writes_outstanding_ < ec_->max_concurrent_requests &&
           !writes_.empty()) {
      PendingWrite w = std::move(writes_.front());
      writes_.pop_front();
      ++writes_outstanding_;
      shuffle_client_->Put(
          w.key, std::move(w.blob), storage_ctx_, [self](Status status) {
            --self->writes_outstanding_;
            if (self->done_) return;
            if (!status.ok()) {
              self->Fail(status);
              return;
            }
            if (self->writes_.empty() && self->writes_outstanding_ == 0) {
              self->Respond();
              return;
            }
            self->PumpWrites();
          });
    }
  }

  void Respond() {
    if (done_) return;
    done_ = true;
    if (tracer_ != nullptr) {
      tracer_->SetArg(output_span_, "bytes_written", Json(bytes_written_));
      tracer_->SetArg(output_span_, "rows_out", Json(rows_out_));
      tracer_->End(output_span_);
    }
    // Phase timings live in the trace and the metrics registry; the response
    // carries only the fields the coordinator aggregates.
    if (metrics_ != nullptr) {
      metrics_->Add("worker.fragments");
      metrics_->Record("worker.input_ms", ToMillis(input_done_ - start_));
      metrics_->Record("worker.compute_ms",
                       ToMillis(compute_done_ - input_done_));
      metrics_->Record("worker.output_ms", ToMillis(Now() - compute_done_));
      metrics_->Record("worker.duration_ms", ToMillis(Now() - start_));
      metrics_->Max("worker.peak_memory_bytes", memory_.peak());
    }
    Json response = Json::Object();
    response["fragment"] = fragment_;
    response["rows_out"] = rows_out_;
    response["bytes_read"] = bytes_read_;
    response["bytes_written"] = bytes_written_;
    response["requests"] = table_client_->stats().attempts +
                           shuffle_client_->stats().attempts;
    response["cold_start"] = fctx_->cold_start();
    response["duration_ms"] = ToMillis(Now() - start_);
    response["peak_memory_bytes"] = memory_.peak();
    response["batches"] = executor_ != nullptr ? executor_->batches() : 0;
    fctx_->Finish(std::move(response));
  }

  EngineContext* ec_;
  // The sandbox this worker runs in; mutations go through the sandbox
  // lifecycle API crossings.
  std::shared_ptr<faas::FunctionContext> fctx_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::SpanId input_span_ = obs::kNoSpan;
  obs::SpanId compute_span_ = obs::kNoSpan;
  obs::SpanId output_span_ = obs::kNoSpan;
  CostAccumulator cost_;
  MemoryTracker memory_;
  // Client stubs for the storage crossings (RetryClient::GetRange/Put).
  std::unique_ptr<storage::RetryClient> table_client_;
  std::unique_ptr<storage::RetryClient> shuffle_client_;
  storage::ClientContext storage_ctx_;
  PipelineSpec pipeline_;
  std::string query_id_;
  int fragment_ = 0;
  int barrier_participants_ = 0;
  std::vector<WorkerInputAssignment> assignments_;
  /// Build-side input tables; for input 0, only its first file's projected
  /// schema, which a zero-morsel stream runs the chain over.
  std::vector<std::optional<Chunk>> loaded_;

  // Compute state for the streamed input 0.
  /// Per-task recycling pool: decoded row groups, pushdown-spent inputs, and
  /// pipeline morsels all share one free list (single-threaded on the sim
  /// event loop).
  data::ChunkPool chunk_pool_;
  /// ApplyPushdown's selection vector, reused across row groups.
  std::vector<uint32_t> pushdown_selection_;
  std::unique_ptr<FragmentPipeline> executor_;
  std::deque<Chunk> morsels_;
  int64_t morsels_seen_ = 0;
  bool computing_ = false;
  bool finished_ = false;
  bool stream_eof_ = false;
  SimDuration charged_ = 0;

  // Reader state of the input being read (`input_`).
  size_t input_ = 0;
  size_t stream_file_index_ = 0;
  format::FileMeta stream_meta_;
  std::vector<std::string> stream_projection_;
  std::vector<size_t> stream_survivors_;
  std::deque<ReadOp> stream_pending_;
  std::vector<std::string> stream_buffers_;
  std::vector<int> rg_pieces_;
  std::vector<bool> rg_ready_;
  size_t rg_cursor_ = 0;
  int stream_outstanding_ = 0;
  std::vector<std::vector<Chunk>> shuffle_slots_;
  std::vector<bool> shuffle_done_;
  int shuffle_cursor_ = 0;
  int shuffle_next_ = 0;
  int shuffle_outstanding_ = 0;

  // Output PUTs, issued with bounded concurrency.
  std::deque<PendingWrite> writes_;
  int writes_outstanding_ = 0;

  SimTime start_ = 0;
  SimTime input_done_ = 0;
  SimTime compute_done_ = 0;
  int64_t bytes_read_ = 0;
  int64_t bytes_written_ = 0;
  int64_t rows_out_ = 0;
  bool done_ = false;
};

}  // namespace

Result<format::FileMeta> ResolveFooter(
    const format::SyntheticFileCatalog* catalog, const std::string& key,
    const storage::Blob& tail, int64_t tail_offset, int64_t file_size) {
  if (tail.is_synthetic()) return catalog->Find(key);
  return format::ParseFooter(tail.data(), tail_offset, file_size);
}

faas::FunctionHandler MakeWorkerHandler(EngineContext* context) {
  return [context](const std::shared_ptr<faas::FunctionContext>& fctx) {
    auto task = std::make_shared<WorkerTask>(context, fctx);
    task->Run();
  };
}

Json WorkerPayload(const std::string& query_id, const Json& pipeline,
                   int fragment,
                   const std::vector<WorkerInputAssignment>& inputs) {
  Json payload = Json::Object();
  payload["query_id"] = query_id;
  payload["pipeline"] = pipeline;
  payload["fragment"] = fragment;
  Json input_list = Json::Array();
  for (const auto& input : inputs) {
    Json in = Json::Object();
    Json files = Json::Array();
    for (const auto& f : input.files) {
      Json file = Json::Object();
      file["key"] = f.key;
      file["size"] = f.size;
      files.Append(std::move(file));
    }
    in["files"] = std::move(files);
    in["upstream_fragments"] = input.upstream_fragments;
    input_list.Append(std::move(in));
  }
  payload["inputs"] = std::move(input_list);
  return payload;
}

}  // namespace skyrise::engine
