#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

/// \file admission.h
/// Multi-tenant admission control for the serving frontend: per-tenant
/// concurrency quotas, a global in-flight cap (the frontend's own budget
/// against the shared Lambda fleet, below the account limit so the platform
/// is not the first thing to throttle), bounded per-tenant backlogs, and
/// weighted fair scheduling over the queued work.
///
/// Fairness is stride scheduling: each tenant carries a virtual "pass";
/// dispatching from a tenant advances its pass by 1/weight, and the
/// eligible backlogged tenant with the smallest pass dispatches next (ties
/// break by tenant index). Under saturation, tenants with 2:1 weights
/// therefore complete queries at a 2:1 ratio. Pure integer/double state,
/// no RNG, no clock — decisions are a deterministic function of the
/// offer/release sequence.

namespace skyrise::serving {

struct TenantPolicy {
  std::string name;
  /// Queries this tenant may have in flight at once; at the quota, new
  /// arrivals queue instead of invoking.
  int max_concurrent = 4;
  /// Weighted-fair share of dispatch slots under contention.
  double weight = 1.0;
  /// Backlog bound; arrivals beyond it are shed (admission-level 429).
  int max_queue = 10000;
};

class AdmissionController {
 public:
  struct Options {
    /// Total in-flight queries across all tenants; <= 0 means unlimited.
    int global_max_concurrent = 64;
  };

  enum class Decision {
    kDispatch,  ///< Admitted immediately; caller launches the query now.
    kQueue,     ///< Quota/cap reached (or backlog ahead); parked in order.
    kShed,      ///< Backlog full; rejected outright.
  };

  struct TenantStats {
    int64_t arrivals = 0;
    int64_t dispatched = 0;  ///< Admitted to the platform (direct + queued).
    int64_t queued = 0;      ///< Arrivals that had to wait.
    int64_t shed = 0;
    int in_flight = 0;
    int peak_in_flight = 0;
    int queue_depth = 0;
    int peak_queue_depth = 0;
  };

  AdmissionController(const Options& options,
                      std::vector<TenantPolicy> tenants);

  int tenant_count() const { return static_cast<int>(tenants_.size()); }
  const TenantPolicy& policy(int tenant) const {
    return tenants_[static_cast<size_t>(tenant)].policy;
  }
  const TenantStats& stats(int tenant) const {
    return tenants_[static_cast<size_t>(tenant)].stats;
  }
  int global_in_flight() const { return global_in_flight_; }
  int peak_global_in_flight() const { return peak_global_in_flight_; }

  /// Offers one arrival (an opaque item id) for `tenant`. On kDispatch the
  /// slot accounting is already done — the caller must launch the item.
  /// FIFO per tenant: if the tenant already has a backlog, new arrivals
  /// queue behind it even when a slot is free.
  Decision Offer(int tenant, int64_t item);

  /// Returns one query's in-flight slot (on completion or failure). Follow
  /// with a TryDispatchQueued() drain loop to hand freed slots to waiters.
  void Release(int tenant);

  /// Picks the next queued item eligible under quotas and the global cap,
  /// by weighted fair order; accounts it as dispatched. nullopt when
  /// nothing is eligible.
  std::optional<std::pair<int, int64_t>> TryDispatchQueued();

  /// Total queued items across tenants.
  int backlog() const;

 private:
  struct Tenant {
    TenantPolicy policy;
    TenantStats stats;
    std::deque<int64_t> queue;
    double pass = 0;  ///< Stride-scheduling virtual time.
  };

  bool HasFreeSlot(const Tenant& tenant) const;
  void AccountDispatch(Tenant* tenant);

  Options opt_;
  std::vector<Tenant> tenants_;
  int global_in_flight_ = 0;
  int peak_global_in_flight_ = 0;
  /// Pass of the most recent dispatch; newly backlogged tenants start here
  /// so an idle tenant cannot bank service and later starve the others.
  double virtual_time_ = 0;
};

}  // namespace skyrise::serving
