#pragma once

#include <algorithm>
#include <cstdint>

/// \file memory_tracker.h
/// Per-worker accounting of resident data bytes during streaming fragment
/// execution: in-flight read buffers, the morsel being processed, and the
/// accumulated state of pipeline breakers (join build tables, aggregate
/// groups, sort/sessionize buffers) and sinks. The peak feeds worker stats,
/// the query response, and the break-even memory-config recommendation
/// (see pricing::RecommendLambdaMemoryMib).

namespace skyrise::engine {

class MemoryTracker {
 public:
  void Add(int64_t bytes) {
    current_ += bytes;
    peak_ = std::max(peak_, current_);
  }
  void Release(int64_t bytes) { current_ -= bytes; }

  int64_t current() const { return current_; }
  int64_t peak() const { return peak_; }

  /// Records the chunk-pool capacity parked on free lists. Deliberately kept
  /// out of current()/peak(): those price *live* data bytes (and feed the
  /// memory-size recommendation), while pooled buffers hold no rows — they
  /// are capacity waiting to be recycled. Reported separately in worker
  /// stats so the reuse footprint stays visible.
  void SetPooledRetained(int64_t bytes) {
    pooled_retained_ = bytes;
    pooled_peak_ = std::max(pooled_peak_, bytes);
  }
  int64_t pooled_retained() const { return pooled_retained_; }
  int64_t pooled_peak() const { return pooled_peak_; }

 private:
  int64_t current_ = 0;
  int64_t peak_ = 0;
  int64_t pooled_retained_ = 0;
  int64_t pooled_peak_ = 0;
};

}  // namespace skyrise::engine
