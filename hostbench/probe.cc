#include "probe.h"

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
/// Global allocation counter; bumped by the replaced operator new below.
uint64_t g_allocations = 0;
}  // namespace

// Replace the global allocator to count allocations exactly, as
// bench/sim_core.cc does. Deallocation stays on the default path; this is a
// counting shim, not an allocator.
void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hostbench {

int64_t HostNowNs() {
  // The benchmark measures the host cost of advancing virtual time, so this
  // is the one place it reads a host clock; the value never reaches the
  // simulator.
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // skyrise-check: allow(banned-api, transitive-nondeterminism) — measuring host cost.
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

double HeapLiveMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

uint64_t AllocCount() { return g_allocations; }

const char* SeamName(Seam seam) {
  switch (seam) {
    case Seam::kStorageGet:
      return "storage.get";
    case Seam::kStoragePut:
      return "storage.put";
    case Seam::kStorageCallback:
      return "storage.callback";
    case Seam::kFaasInvoke:
      return "faas.invoke";
    case Seam::kFaasResponse:
      return "faas.response_cb";
    case Seam::kCoordinator:
      return "engine.coordinator";
    case Seam::kWorker:
      return "engine.worker";
    case Seam::kInvoker:
      return "engine.invoker";
    case Seam::kDatagenGenerate:
      return "datagen.generate";
    case Seam::kDatagenUpload:
      return "datagen.encode_upload";
    case Seam::kDeploy:
      return "setup.deploy";
    case Seam::kServingReport:
      return "serving.report";
    case Seam::kBench:
      return "bench";
    case Seam::kCount:
      break;
  }
  return "unknown";
}

SeamTotals SeamTotals::Minus(const SeamTotals& earlier) const {
  SeamTotals out;
  for (int i = 0; i < kSeamCount; ++i) {
    out.self_ns[i] = self_ns[i] - earlier.self_ns[i];
    out.self_allocs[i] = self_allocs[i] - earlier.self_allocs[i];
  }
  out.top_level_ns = top_level_ns - earlier.top_level_ns;
  out.top_level_allocs = top_level_allocs - earlier.top_level_allocs;
  return out;
}

SpanRecorder::SpanRecorder() : origin_ns_(HostNowNs()) {
  spans_.reserve(1 << 16);
  stack_.reserve(64);
}

void SpanRecorder::Begin(Seam seam) {
  const int32_t parent = stack_.empty() ? -1 : stack_.back();
  stack_.push_back(static_cast<int32_t>(spans_.size()));
  spans_.push_back(Span{seam, parent, 0, 0, 0, 0, 0, 0});
  Span& span = spans_.back();
  span.start_allocs = AllocCount();
  span.start_ns = HostNowNs();
}

void SpanRecorder::End() {
  const int64_t end_ns = HostNowNs();
  const uint64_t end_allocs = AllocCount();
  if (stack_.empty()) std::abort();  // Unbalanced End: a decorator bug.
  Span& span = spans_[static_cast<size_t>(stack_.back())];
  stack_.pop_back();
  span.end_ns = end_ns;
  const int64_t duration = end_ns - span.start_ns;
  const auto allocs = static_cast<int64_t>(end_allocs - span.start_allocs);
  span.self_allocs = allocs - span.child_allocs;
  const int s = static_cast<int>(span.seam);
  totals_.self_ns[s] += duration - span.child_ns;
  totals_.self_allocs[s] += span.self_allocs;
  if (span.parent >= 0) {
    Span& parent = spans_[static_cast<size_t>(span.parent)];
    parent.child_ns += duration;
    parent.child_allocs += allocs;
  } else {
    totals_.top_level_ns += duration;
    totals_.top_level_allocs += allocs;
  }
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  bool first = true;
  for (const Span& span : spans_) {
    if (span.end_ns == 0) continue;  // Still open; reported separately.
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_ns\":%lld,"
                 "\"self_allocs\":%lld}}",
                 first ? "" : ",\n", SeamName(span.seam),
                 1e-3 * static_cast<double>(span.start_ns - origin_ns_),
                 1e-3 * static_cast<double>(span.end_ns - span.start_ns),
                 static_cast<long long>(span.end_ns - span.start_ns -
                                        span.child_ns),
                 static_cast<long long>(span.self_allocs));
    first = false;
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace hostbench
