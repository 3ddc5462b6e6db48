#include "serving/admission.h"

#include <algorithm>

namespace skyrise::serving {

AdmissionController::AdmissionController(const Options& options,
                                         std::vector<TenantPolicy> tenants)
    : opt_(options) {
  tenants_.reserve(tenants.size());
  for (auto& policy : tenants) {
    Tenant tenant;
    tenant.policy = std::move(policy);
    tenants_.push_back(std::move(tenant));
  }
}

bool AdmissionController::HasFreeSlot(const Tenant& tenant) const {
  if (tenant.stats.in_flight >= tenant.policy.max_concurrent) return false;
  if (opt_.global_max_concurrent > 0 &&
      global_in_flight_ >= opt_.global_max_concurrent) {
    return false;
  }
  return true;
}

void AdmissionController::AccountDispatch(Tenant* tenant) {
  ++tenant->stats.dispatched;
  ++tenant->stats.in_flight;
  tenant->stats.peak_in_flight =
      std::max(tenant->stats.peak_in_flight, tenant->stats.in_flight);
  ++global_in_flight_;
  peak_global_in_flight_ = std::max(peak_global_in_flight_, global_in_flight_);
  // Advance the stride pass: heavier tenants move slower, so they win the
  // min-pass election proportionally more often.
  const double weight = std::max(tenant->policy.weight, 1e-9);
  tenant->pass += 1.0 / weight;
  virtual_time_ = std::max(virtual_time_, tenant->pass);
}

AdmissionController::Decision AdmissionController::Offer(int tenant_index,
                                                         int64_t item) {
  Tenant& tenant = tenants_[static_cast<size_t>(tenant_index)];
  ++tenant.stats.arrivals;
  if (tenant.queue.empty() && HasFreeSlot(tenant)) {
    AccountDispatch(&tenant);
    return Decision::kDispatch;
  }
  if (static_cast<int>(tenant.queue.size()) >= tenant.policy.max_queue) {
    ++tenant.stats.shed;
    return Decision::kShed;
  }
  if (tenant.queue.empty()) {
    // Re-entering contention after an idle stretch: catch the pass up to
    // the current virtual time so banked idleness is not a fairness credit.
    tenant.pass = std::max(tenant.pass, virtual_time_);
  }
  tenant.queue.push_back(item);
  ++tenant.stats.queued;
  tenant.stats.queue_depth = static_cast<int>(tenant.queue.size());
  tenant.stats.peak_queue_depth =
      std::max(tenant.stats.peak_queue_depth, tenant.stats.queue_depth);
  return Decision::kQueue;
}

void AdmissionController::Release(int tenant_index) {
  Tenant& tenant = tenants_[static_cast<size_t>(tenant_index)];
  tenant.stats.in_flight = std::max(0, tenant.stats.in_flight - 1);
  global_in_flight_ = std::max(0, global_in_flight_ - 1);
}

std::optional<std::pair<int, int64_t>>
AdmissionController::TryDispatchQueued() {
  int best = -1;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const Tenant& tenant = tenants_[i];
    if (tenant.queue.empty() || !HasFreeSlot(tenant)) continue;
    if (best < 0 ||
        tenant.pass < tenants_[static_cast<size_t>(best)].pass) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return std::nullopt;
  Tenant& tenant = tenants_[static_cast<size_t>(best)];
  const int64_t item = tenant.queue.front();
  tenant.queue.pop_front();
  tenant.stats.queue_depth = static_cast<int>(tenant.queue.size());
  AccountDispatch(&tenant);
  return std::make_pair(best, item);
}

int AdmissionController::backlog() const {
  int total = 0;
  for (const auto& tenant : tenants_) {
    total += static_cast<int>(tenant.queue.size());
  }
  return total;
}

}  // namespace skyrise::serving
