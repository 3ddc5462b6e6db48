#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file probe.h
/// Host-side measurement for the host-cost benchmark: the one host-clock
/// read, process CPU / RSS / live-heap probes, the global allocation
/// counter, and a span recorder that the benchmark's decorators open around
/// every call into a layer's public seam. Nothing here feeds back into
/// simulated time; the simulator's outputs are identical with or without it.

namespace hostbench {

/// Monotonic host time in nanoseconds.
int64_t HostNowNs();
/// User + system CPU seconds consumed by this process so far.
double CpuSeconds();
/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();
/// Bytes currently allocated from the C heap (arenas plus mmapped blocks),
/// in MiB.
double HeapLiveMb();
/// Global `operator new` / `operator new[]` calls so far.
uint64_t AllocCount();

/// Layer seams the decorators time. Each span carries one of these.
enum class Seam : uint8_t {
  kStorageGet,       ///< StorageService::Get / GetRange call.
  kStoragePut,       ///< StorageService::Put call.
  kStorageCallback,  ///< Storage completion: retry client + worker continuation.
  kFaasInvoke,       ///< ComputePlatform::Invoke call.
  kFaasResponse,     ///< Invocation response callback.
  kCoordinator,      ///< Coordinator function handler.
  kWorker,           ///< Worker function handler.
  kInvoker,          ///< Invoker function handler.
  kDatagenGenerate,  ///< Table generator passed to UploadDataset.
  kDatagenUpload,    ///< UploadDataset (COF encode + insert) around generators.
  kDeploy,           ///< QueryEngine::Deploy plus handler re-registration.
  kServingReport,    ///< ServingFrontend::Report.
  kBench,            ///< Decorator-internal measurement work (payload dumps).
  kCount,
};
constexpr int kSeamCount = static_cast<int>(Seam::kCount);
const char* SeamName(Seam seam);

/// Per-seam totals accumulated as spans close.
struct SeamTotals {
  int64_t self_ns[kSeamCount] = {};
  int64_t self_allocs[kSeamCount] = {};
  int64_t top_level_ns = 0;      ///< Summed duration of parentless spans.
  int64_t top_level_allocs = 0;  ///< Allocations inside parentless spans.

  SeamTotals Minus(const SeamTotals& earlier) const;
};

/// Spans on a benchmark-side stack. A span's self time is its duration
/// minus its children's; each allocation is charged to the innermost open
/// span. Closed spans stay in memory until WriteChromeTrace at the end.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void Begin(Seam seam);
  void End();

  int64_t open_spans() const { return static_cast<int64_t>(stack_.size()); }
  const SeamTotals& totals() const { return totals_; }
  /// Host time the written trace's timestamps count from.
  int64_t origin_ns() const { return origin_ns_; }

  /// Writes every closed span as a Chrome trace ("X" events, microseconds
  /// since the recorder was created). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    Seam seam;
    int32_t parent;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t start_allocs;
    int64_t child_ns;
    int64_t child_allocs;
    int64_t self_allocs;
  };
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  SeamTotals totals_;
  int64_t origin_ns_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Seam seam) : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->Begin(seam);
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
};

}  // namespace hostbench
