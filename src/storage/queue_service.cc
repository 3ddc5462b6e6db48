#include "storage/queue_service.h"

#include <utility>

namespace skyrise::storage {

QueueService::QueueService(sim::SimEnvironment* env, const Options& options)
    : env_(env), opt_(options) {}

void QueueService::Arrive(const std::string& name, int expected,
                          std::function<void()> on_release) {
  SKYRISE_CHECK(expected >= 1);
  Barrier& barrier = barriers_[name];
  barrier.expected = expected;
  barrier.waiters.push_back(std::move(on_release));
  if (static_cast<int>(barrier.waiters.size()) < expected) return;
  // All arrived: release everyone after one poll round-trip each. Waiters
  // discover the condition on their next poll, so release times spread over
  // one polling interval.
  std::vector<std::function<void()>> waiters = std::move(barrier.waiters);
  barriers_.erase(name);
  for (size_t i = 0; i < waiters.size(); ++i) {
    const SimDuration jitter =
        static_cast<SimDuration>(static_cast<double>(opt_.poll_interval) *
                                 static_cast<double>(i) /
                                 static_cast<double>(waiters.size()));
    env_->Schedule(opt_.poll_latency_median + jitter, std::move(waiters[i]));
  }
}

}  // namespace skyrise::storage
