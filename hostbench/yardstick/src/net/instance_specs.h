#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "net/nic.h"

/// \file instance_specs.h
/// Network and compute specifications for the instance families used in the
/// paper (EC2 C6g / C6gn, ARM Lambda). Burst/baseline bandwidths follow the
/// AWS published per-size figures; bucket sizes are calibrated so burst
/// durations land in the 3–45 minute range the paper's Fig. 6 sweep observed.

namespace skyrise::net {

struct Ec2NetworkSpec {
  std::string instance_type;
  int vcpus = 0;
  double memory_gib = 0;
  double burst_gbps = 0;     ///< 0 burst == baseline (no bursting).
  double baseline_gbps = 0;
  double bucket_gib = 0;     ///< Token bucket size; 0 => sustained.
};

/// All C6g sizes (medium .. 16xlarge).
const std::vector<Ec2NetworkSpec>& C6gNetworkSpecs();

/// Network-optimized C6gn sizes (4x the C6g throughput).
const std::vector<Ec2NetworkSpec>& C6gnNetworkSpecs();

/// Looks up a spec by full instance type name, e.g. "c6g.xlarge".
[[nodiscard]] Result<Ec2NetworkSpec> FindInstanceSpec(const std::string& instance_type);

/// Builds a NIC model for an EC2 instance type.
[[nodiscard]] Result<Ec2Nic::Options> MakeEc2NicOptions(const std::string& instance_type);

/// Lambda network constants from Section 4.2 (constant across sizes).
struct LambdaNetworkSpec {
  double burst_in_gib_s = 1.2;
  double burst_out_gib_s = 0.9;
  double baseline_mib_s = 75.0;
  double one_off_mib = 150.0;
  double bucket_mib = 150.0;
};

LambdaNetworkSpec DefaultLambdaNetworkSpec();

}  // namespace skyrise::net
