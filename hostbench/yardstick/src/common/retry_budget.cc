#include "common/retry_budget.h"

#include <algorithm>

namespace skyrise {

RetryBudget::RetryBudget(const Options& options)
    : opt_(options), tokens_(options.initial_tokens) {}

bool RetryBudget::TryAcquire() {
  if (tokens_ < 1.0) {
    ++stats_.denied;
    return false;
  }
  tokens_ -= 1.0;
  ++stats_.acquired;
  return true;
}

void RetryBudget::RecordSuccess() {
  const double refund =
      std::min(opt_.refund_per_success, opt_.initial_tokens - tokens_);
  if (refund <= 0) return;
  tokens_ += refund;
  stats_.refunded += refund;
}

}  // namespace skyrise
