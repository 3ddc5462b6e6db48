#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "common/units.h"

/// \file price_list.h
/// AWS us-east-1 price book as of the paper's study window (Feb–Oct 2024),
/// encoding Tables 1 and 2 plus the storage-hierarchy parameters used by the
/// Section 5.3 break-even analyses. All prices in USD.

namespace skyrise::pricing {

/// AWS Lambda (ARM / Graviton2) pricing.
struct LambdaPricing {
  /// $/GiB-second of configured memory, by monthly usage tier.
  double gib_second_first_tier = 1.33334e-5;   ///< First 6B GiB-s (4.80 c/GiB-h).
  double gib_second_last_tier = 1.06667e-5;    ///< Beyond 15B GiB-s (3.84 c/GiB-h).
  double per_request = 2.0e-7;                 ///< $0.20 per 1M invocations.
  double ephemeral_gib_month = 0.0812;         ///< 8.12 c/GiB-mo beyond 512 MiB.
  double min_memory_gib = 0.125;
  double max_memory_gib = 10.0;
  /// One vCPU equivalent per 1,769 MiB of configured memory.
  double mib_per_vcpu = 1769.0;
};

/// One EC2 instance type's pricing/sizing.
struct Ec2InstancePricing {
  std::string instance_type;
  int vcpus = 0;
  double memory_gib = 0;
  double on_demand_hourly = 0;
  double reserved_hourly = 0;  ///< 3-yr reserved effective rate.
  double local_ssd_gb = 0;     ///< NVMe instance storage (d-variants).
};

/// Serverless storage service pricing (Table 2).
struct StorageServicePricing {
  std::string service;            ///< "s3", "s3express", "dynamodb", "efs".
  double read_request = 0;        ///< $/request.
  double write_request = 0;       ///< $/request.
  double read_transfer_gib = 0;   ///< $/GiB read payload.
  double write_transfer_gib = 0;  ///< $/GiB written payload.
  /// Bytes included per request before transfer pricing kicks in
  /// (S3 Express charges only beyond 512 KiB).
  int64_t transfer_free_bytes_per_request = 0;
  double storage_gib_month = 0;
  /// DynamoDB-style request units: requests are split into ceil(size/unit)
  /// billed units; 0 => flat per-request billing regardless of size.
  int64_t request_unit_bytes_read = 0;
  int64_t request_unit_bytes_write = 0;
};

/// Parameters for the cloud storage hierarchy of Section 5.3.1.
struct StorageHierarchyPricing {
  /// RAM rent attributed per GiB-hour (3-yr reserved memory-optimized).
  double ram_gib_hour = 0.0022;
  /// Local NVMe SSD: per-device rent and performance envelope.
  double ssd_device_hourly = 0.1435;
  double ssd_device_gb = 1900.0;
  double ssd_max_iops = 427000.0;       ///< 4 KiB random reads.
  double ssd_max_bandwidth_mb_s = 2147.0;  ///< "2 GiB/s" EC2 NVMe cap.
  /// EBS gp3: 1 TB volume provisioned to 16K IOPS / 590 MB/s.
  double ebs_volume_hourly = 0.2244;
  double ebs_max_iops = 16000.0;
  double ebs_max_bandwidth_mb_s = 590.0;
  /// Cross-region data transfer surcharge.
  double cross_region_transfer_gib = 0.02;
};

class PriceList {
 public:
  static const PriceList& Default();

  const LambdaPricing& lambda() const { return lambda_; }
  const StorageHierarchyPricing& hierarchy() const { return hierarchy_; }

  [[nodiscard]] Result<Ec2InstancePricing> Ec2(const std::string& instance_type) const;
  [[nodiscard]] Result<StorageServicePricing> Storage(const std::string& service) const;

  /// Cost of a Lambda invocation: `memory_gib` for `duration` (billed at 1 ms
  /// granularity, rounded up) plus the request fee.
  double LambdaInvocationCost(double memory_gib, SimDuration duration) const;

  /// Cost of running an EC2 instance for `duration` (per-second billing with
  /// a 60 s minimum, as for Linux on-demand).
  [[nodiscard]] Result<double> Ec2Cost(const std::string& instance_type,
                         SimDuration duration, bool reserved = false) const;

  /// Cost of one storage request of `payload_bytes` against `service`.
  [[nodiscard]] Result<double> StorageRequestCost(const std::string& service, bool is_write,
                                    int64_t payload_bytes) const;

 private:
  PriceList();

  LambdaPricing lambda_;
  StorageHierarchyPricing hierarchy_;
  std::vector<Ec2InstancePricing> ec2_;
  std::vector<StorageServicePricing> storage_;
};

}  // namespace skyrise::pricing
