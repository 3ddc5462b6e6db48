#include "sim/environment.h"

#include <limits>

namespace skyrise::sim {

SimEnvironment::SimEnvironment(uint64_t seed) : seed_(seed), root_rng_(seed) {}

EventId SimEnvironment::ScheduleImpl(SimTime when, EventCallback callback) {
  SKYRISE_CHECK(when >= now_);
  return queue_.Push(when, std::move(callback));
}

void SimEnvironment::Cancel(EventId id) { queue_.Cancel(id); }

bool SimEnvironment::FireNext(SimTime limit) {
  SimTime time = 0;
  bool cancelled = false;
  while (queue_.PeekNext(&time, &cancelled)) {
    if (time > limit) return false;
    if (cancelled) {
      queue_.DropNext();
      continue;
    }
    EventCallback callback = queue_.PopNext(&time);
    now_ = time;
    ++events_processed_;
    callback();
    return true;
  }
  return false;
}

bool SimEnvironment::Step() {
  return FireNext(std::numeric_limits<SimTime>::max());
}

SimTime SimEnvironment::Run() {
  while (Step()) {
  }
  return now_;
}

void SimEnvironment::RunUntil(SimTime until) {
  SKYRISE_CHECK(until >= now_);
  while (FireNext(until)) {
  }
  now_ = until;
}

}  // namespace skyrise::sim
