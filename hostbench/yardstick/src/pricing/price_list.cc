#include "pricing/price_list.h"

#include <cmath>

#include "common/string_util.h"

namespace skyrise::pricing {

namespace {

std::vector<Ec2InstancePricing> BuildEc2() {
  // {type, vcpus, mem GiB, on-demand $/h, 3yr-reserved $/h, local SSD GB}.
  // C6g on-demand scales linearly at $0.034 per vCPU-hour (us-east-1);
  // reserved is the ~52% discounted 3-yr effective rate the paper's Table 8
  // "reserved" column relies on. C6gn carries the network-optimized premium,
  // C6gd includes local NVMe.
  std::vector<Ec2InstancePricing> out;
  struct Size {
    const char* suffix;
    int vcpus;
    double mem;
  };
  const Size sizes[] = {{"medium", 1, 2},    {"large", 2, 4},
                        {"xlarge", 4, 8},    {"2xlarge", 8, 16},
                        {"4xlarge", 16, 32}, {"8xlarge", 32, 64},
                        {"12xlarge", 48, 96}, {"16xlarge", 64, 128}};
  for (const auto& s : sizes) {
    const double od_c6g = 0.034 * s.vcpus;
    out.push_back({std::string("c6g.") + s.suffix, s.vcpus, s.mem, od_c6g,
                   od_c6g * 0.48, 0});
    const double od_c6gn = 0.0432 * s.vcpus;
    out.push_back({std::string("c6gn.") + s.suffix, s.vcpus, s.mem, od_c6gn,
                   od_c6gn * 0.3327, 0});
    const double od_c6gd = 0.03856 * s.vcpus;
    // NVMe capacity grows with size: 59 GB per vCPU (xlarge: 237 GB).
    out.push_back({std::string("c6gd.") + s.suffix, s.vcpus, s.mem, od_c6gd,
                   od_c6gd * 0.48, 59.4 * s.vcpus});
  }
  return out;
}

std::vector<StorageServicePricing> BuildStorage() {
  std::vector<StorageServicePricing> out;
  // S3 Standard: $0.40/M GET, $5.00/M PUT, no transfer fee in-region,
  // 2.1-2.3 c/GiB-mo (we use 2.3, the first tier).
  out.push_back({"s3", 4.0e-7, 5.0e-6, 0, 0, 0, 0.023, 0, 0});
  // S3 Express One Zone: half the request prices, but request payload beyond
  // 512 KiB is charged per GiB (0.15 c read / 0.8 c write).
  out.push_back({"s3express", 2.0e-7, 2.5e-6, 0.0015, 0.008, 512 * kKiB,
                 0.16, 0, 0});
  // DynamoDB on-demand: $0.25/M read request units (4 KiB, eventually
  // consistent halves it; we price strongly consistent), $1.25/M write
  // request units (1 KiB).
  out.push_back({"dynamodb", 2.5e-7, 1.25e-6, 0, 0, 0, 0.25, 4 * kKiB,
                 1 * kKiB});
  // EFS elastic throughput: no request fee, 3 c/GiB read, 6 c/GiB write,
  // 16-30 c/GiB-mo (we use standard storage at 30; the 16 end is archival).
  out.push_back({"efs", 0, 0, 0.03, 0.06, 0, 0.30, 0, 0});
  return out;
}

}  // namespace

PriceList::PriceList() : ec2_(BuildEc2()), storage_(BuildStorage()) {}

const PriceList& PriceList::Default() {
  static const PriceList instance;
  return instance;
}

Result<Ec2InstancePricing> PriceList::Ec2(
    const std::string& instance_type) const {
  for (const auto& e : ec2_) {
    if (e.instance_type == instance_type) return e;
  }
  return Status::NotFound(
      StrFormat("no pricing for instance type %s", instance_type.c_str()));
}

Result<StorageServicePricing> PriceList::Storage(
    const std::string& service) const {
  for (const auto& s : storage_) {
    if (s.service == service) return s;
  }
  return Status::NotFound(
      StrFormat("no pricing for storage service %s", service.c_str()));
}

double PriceList::LambdaInvocationCost(double memory_gib,
                                       SimDuration duration) const {
  const double billed_ms = std::ceil(ToMillis(duration));
  const double gib_seconds = memory_gib * billed_ms / 1000.0;
  return gib_seconds * lambda_.gib_second_first_tier + lambda_.per_request;
}

Result<double> PriceList::Ec2Cost(const std::string& instance_type,
                                  SimDuration duration, bool reserved) const {
  Ec2InstancePricing p;
  SKYRISE_ASSIGN_OR_RETURN(p, Ec2(instance_type));
  const double billed_seconds = std::max(60.0, ToSeconds(duration));
  const double hourly = reserved ? p.reserved_hourly : p.on_demand_hourly;
  return hourly * billed_seconds / 3600.0;
}

Result<double> PriceList::StorageRequestCost(const std::string& service,
                                             bool is_write,
                                             int64_t payload_bytes) const {
  StorageServicePricing p;
  SKYRISE_ASSIGN_OR_RETURN(p, Storage(service));
  double cost = 0;
  const int64_t unit =
      is_write ? p.request_unit_bytes_write : p.request_unit_bytes_read;
  const double request_price = is_write ? p.write_request : p.read_request;
  if (unit > 0) {
    const int64_t units = std::max<int64_t>(1, (payload_bytes + unit - 1) / unit);
    cost += request_price * static_cast<double>(units);
  } else {
    cost += request_price;
  }
  const double transfer_price =
      is_write ? p.write_transfer_gib : p.read_transfer_gib;
  if (transfer_price > 0) {
    const int64_t billable =
        std::max<int64_t>(0, payload_bytes - p.transfer_free_bytes_per_request);
    cost += transfer_price * ToGiB(billable);
  }
  return cost;
}

}  // namespace skyrise::pricing
