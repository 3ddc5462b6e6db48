#include "pricing/cost_meter.h"

namespace skyrise::pricing {

double CostMeter::RecordStorageRequest(const std::string& service,
                                       bool is_write, int64_t payload_bytes,
                                       bool success) {
  requests_by_service_[service] += 1;
  bytes_by_service_[service] += payload_bytes;
  if (!success) ++failed_requests_;
  // AWS bills throttled/failed requests that reached the service as well.
  auto cost = prices_->StorageRequestCost(service, is_write, payload_bytes);
  if (!cost.ok()) return 0;
  storage_usd_ += *cost;
  return *cost;
}

double CostMeter::RecordLambdaInvocation(double memory_gib,
                                         SimDuration duration) {
  ++lambda_invocations_;
  lambda_lifetime_ += duration;
  const double cost = prices_->LambdaInvocationCost(memory_gib, duration);
  compute_usd_ += cost;
  return cost;
}

double CostMeter::RecordEc2Usage(const std::string& instance_type,
                                 SimDuration duration, bool reserved) {
  auto cost = prices_->Ec2Cost(instance_type, duration, reserved);
  if (!cost.ok()) return 0;
  compute_usd_ += *cost;
  return *cost;
}

int64_t CostMeter::TotalRequests() const {
  int64_t total = 0;
  for (const auto& [service, count] : requests_by_service_) total += count;
  return total;
}

int64_t CostMeter::RequestCount(const std::string& service) const {
  auto it = requests_by_service_.find(service);
  return it == requests_by_service_.end() ? 0 : it->second;
}

int64_t CostMeter::BytesMoved(const std::string& service) const {
  auto it = bytes_by_service_.find(service);
  return it == bytes_by_service_.end() ? 0 : it->second;
}

void CostMeter::Merge(const CostMeter& other) {
  storage_usd_ += other.storage_usd_;
  compute_usd_ += other.compute_usd_;
  for (const auto& [service, count] : other.requests_by_service_) {
    requests_by_service_[service] += count;
  }
  for (const auto& [service, bytes] : other.bytes_by_service_) {
    bytes_by_service_[service] += bytes;
  }
  failed_requests_ += other.failed_requests_;
  lambda_invocations_ += other.lambda_invocations_;
  lambda_lifetime_ += other.lambda_lifetime_;
}

void CostMeter::Reset() { *this = CostMeter(prices_); }

}  // namespace skyrise::pricing
