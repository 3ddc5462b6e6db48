#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/environment.h"

/// \file queue_service.h
/// Minimal shared-queue service, used the way the paper uses SQS-style
/// queues: distributed clients synchronize on startup ("all instances
/// synchronize via a shared queue"), and the query engine injects barrier
/// operators that poll a shared queue for a barrier condition.

namespace skyrise::storage {

class QueueService {
 public:
  struct Options {
    SimDuration poll_latency_median = Millis(8);
    SimDuration poll_interval = Millis(100);  ///< Barrier polling cadence.
  };

  explicit QueueService(sim::SimEnvironment* env) : QueueService(env, Options{}) {}
  QueueService(sim::SimEnvironment* env, const Options& options);
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(QueueService);

  /// Registers a participant with barrier `name` of size `expected`. The
  /// callback fires (for every participant) once all have arrived, after the
  /// polling delay. Models the engine's synchronization-barrier operator.
  void Arrive(const std::string& name, int expected,
              std::function<void()> on_release);

 private:
  struct Barrier {
    int expected = 0;
    std::vector<std::function<void()>> waiters;
  };

  sim::SimEnvironment* env_;
  Options opt_;
  std::map<std::string, Barrier> barriers_;
};

}  // namespace skyrise::storage
