#include "sim/token_bucket.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"

namespace skyrise::sim {

TokenBucket::TokenBucket(double capacity, double fill_rate_per_sec,
                         double initial)
    : capacity_(capacity), fill_rate_(fill_rate_per_sec), tokens_(initial) {
  SKYRISE_CHECK(capacity >= 0 && fill_rate_per_sec >= 0);
  tokens_ = std::min(tokens_, capacity_);
}

void TokenBucket::Refill(SimTime now) {
  SKYRISE_CHECK(now >= last_refill_);
  const double elapsed = ToSeconds(now - last_refill_);
  tokens_ = std::min(capacity_, tokens_ + elapsed * fill_rate_);
  last_refill_ = now;
}

double TokenBucket::Available(SimTime now) {
  Refill(now);
  return tokens_;
}

double TokenBucket::Consume(double requested, SimTime now) {
  Refill(now);
  const double granted = std::clamp(requested, 0.0, tokens_);
  tokens_ -= granted;
  return granted;
}

bool TokenBucket::TryConsume(double amount, SimTime now) {
  Refill(now);
  if (tokens_ + 1e-9 < amount) return false;
  tokens_ -= amount;
  return true;
}

SimDuration TokenBucket::TimeUntilAvailable(double amount, SimTime now) {
  Refill(now);
  if (tokens_ >= amount) return 0;
  if (fill_rate_ <= 0) return kDay * 365;  // Effectively never.
  const double deficit = std::min(amount, capacity_) - tokens_;
  return static_cast<SimDuration>(std::ceil(deficit / fill_rate_ * kSecond));
}

void TokenBucket::SetTokens(double tokens, SimTime now) {
  tokens_ = std::clamp(tokens, 0.0, capacity_);
  last_refill_ = now;
}

BurstBudget::BurstBudget(const Options& options)
    : opt_(options), one_off_(options.one_off_bytes),
      bucket_(options.bucket_bytes) {}

void BurstBudget::MaybeIdleRefill(SimTime now) {
  if (ever_active_ && now - last_activity_ >= opt_.idle_refill_after) {
    // Section 4.2: "the token bucket refills halfway to the initial capacity
    // as soon as a function stops utilizing the network" — i.e., the
    // rechargeable half is restored while the one-off half stays consumed.
    bucket_ = opt_.bucket_bytes;
  }
}

double BurstBudget::BaselineAvailable(SimTime now) {
  const int64_t interval = now / opt_.baseline_interval;
  if (interval != baseline_interval_index_) {
    baseline_interval_index_ = interval;
    baseline_available_ = opt_.baseline_chunk_bytes;
  }
  return baseline_available_;
}

double BurstBudget::AllowedBytes(SimTime now, SimDuration dt) {
  MaybeIdleRefill(now);
  const double window_sec = ToSeconds(dt);
  if (InBurst()) {
    const double rate_cap = opt_.burst_rate * window_sec;
    return std::min(rate_cap, one_off_ + bucket_);
  }
  return std::min(BaselineAvailable(now), opt_.burst_rate * window_sec);
}

void BurstBudget::Consume(double bytes, SimTime now) {
  if (bytes <= 0) {
    MaybeIdleRefill(now);
    return;
  }
  MaybeIdleRefill(now);
  ever_active_ = true;
  last_activity_ = now;
  // Drain one-off first, then the rechargeable bucket, then the baseline
  // chunk for the current interval.
  double remaining = bytes;
  const double from_one_off = std::min(one_off_, remaining);
  one_off_ -= from_one_off;
  remaining -= from_one_off;
  const double from_bucket = std::min(bucket_, remaining);
  bucket_ -= from_bucket;
  remaining -= from_bucket;
  if (remaining > 0) {
    const double base = BaselineAvailable(now);
    const double from_base = std::min(base, remaining);
    baseline_available_ -= from_base;
    remaining -= from_base;
  }
  // Any residual overdraft is dropped; callers should respect AllowedBytes.
}

void BurstBudget::NotifyIdle() { bucket_ = opt_.bucket_bytes; }

}  // namespace skyrise::sim
