#pragma once

#include <map>
#include <string>

#include "common/units.h"
#include "pricing/price_list.h"

/// \file cost_meter.h
/// Usage metering for experiment cost reporting. Mirrors the paper's client
/// hook that "counts all requests, including failures and retries", plus
/// compute lifetimes, and prices them with the AWS price book (no bulk
/// discounts).

namespace skyrise::pricing {

class CostMeter {
 public:
  explicit CostMeter(const PriceList* prices = &PriceList::Default())
      : prices_(prices) {}

  /// Records one storage request (counted whether or not it succeeded).
  /// Returns the exact USD amount added to the meter (0 when the service has
  /// no price entry), so callers can attribute it to a trace span.
  double RecordStorageRequest(const std::string& service, bool is_write,
                              int64_t payload_bytes, bool success);

  /// Records a completed Lambda invocation of `memory_gib` for `duration`.
  /// Returns the exact USD amount added to the meter.
  double RecordLambdaInvocation(double memory_gib, SimDuration duration);

  /// Records EC2 instance usage. Returns the exact USD amount added to the
  /// meter (0 when the instance type has no price entry).
  double RecordEc2Usage(const std::string& instance_type, SimDuration duration,
                        bool reserved = false);

  /// Total accumulated cost in USD.
  double TotalUsd() const { return storage_usd_ + compute_usd_; }
  double StorageUsd() const { return storage_usd_; }
  double ComputeUsd() const { return compute_usd_; }

  int64_t TotalRequests() const;
  int64_t FailedRequests() const { return failed_requests_; }
  int64_t RequestCount(const std::string& service) const;
  int64_t BytesMoved(const std::string& service) const;

  int64_t lambda_invocations() const { return lambda_invocations_; }
  SimDuration lambda_lifetime() const { return lambda_lifetime_; }

  void Merge(const CostMeter& other);
  void Reset();

 private:
  const PriceList* prices_;
  double storage_usd_ = 0;
  double compute_usd_ = 0;
  std::map<std::string, int64_t> requests_by_service_;
  std::map<std::string, int64_t> bytes_by_service_;
  int64_t failed_requests_ = 0;
  int64_t lambda_invocations_ = 0;
  SimDuration lambda_lifetime_ = 0;
};

}  // namespace skyrise::pricing
