#include "net/instance_specs.h"

#include "common/string_util.h"

namespace skyrise::net {

namespace {

std::vector<Ec2NetworkSpec> BuildC6g() {
  // {type, vcpu, mem GiB, burst Gbps, baseline Gbps, bucket GiB}.
  // Bucket sizes grow with instance size; burst drains them in minutes
  // (vs. Lambda's sub-second 0.3 GiB budget).
  return {
      {"c6g.medium", 1, 2, 10, 0.5, 150},
      {"c6g.large", 2, 4, 10, 0.75, 240},
      {"c6g.xlarge", 4, 8, 10, 1.25, 360},
      {"c6g.2xlarge", 8, 16, 10, 2.5, 570},
      {"c6g.4xlarge", 16, 32, 10, 5.0, 960},
      {"c6g.8xlarge", 32, 64, 12, 12.0, 0},
      {"c6g.12xlarge", 48, 96, 20, 20.0, 0},
      {"c6g.16xlarge", 64, 128, 25, 25.0, 0},
  };
}

std::vector<Ec2NetworkSpec> BuildC6gn() {
  return {
      {"c6gn.medium", 1, 2, 16, 1.6, 240},
      {"c6gn.large", 2, 4, 25, 3.0, 390},
      {"c6gn.xlarge", 4, 8, 25, 5.0, 570},
      {"c6gn.2xlarge", 8, 16, 25, 10.0, 960},
      {"c6gn.4xlarge", 16, 32, 25, 25.0, 0},
      {"c6gn.8xlarge", 32, 64, 50, 50.0, 0},
      {"c6gn.12xlarge", 48, 96, 75, 75.0, 0},
      {"c6gn.16xlarge", 64, 128, 100, 100.0, 0},
  };
}

}  // namespace

const std::vector<Ec2NetworkSpec>& C6gNetworkSpecs() {
  static const std::vector<Ec2NetworkSpec> specs = BuildC6g();
  return specs;
}

const std::vector<Ec2NetworkSpec>& C6gnNetworkSpecs() {
  static const std::vector<Ec2NetworkSpec> specs = BuildC6gn();
  return specs;
}

Result<Ec2NetworkSpec> FindInstanceSpec(const std::string& instance_type) {
  for (const auto* family : {&C6gNetworkSpecs(), &C6gnNetworkSpecs()}) {
    for (const auto& spec : *family) {
      if (spec.instance_type == instance_type) return spec;
    }
  }
  return Status::NotFound(
      StrFormat("unknown instance type: %s", instance_type.c_str()));
}

Result<Ec2Nic::Options> MakeEc2NicOptions(const std::string& instance_type) {
  Ec2NetworkSpec spec;
  SKYRISE_ASSIGN_OR_RETURN(spec, FindInstanceSpec(instance_type));
  Ec2Nic::Options options;
  options.burst_rate = GbpsToBytesPerSecond(spec.burst_gbps);
  options.baseline_rate = GbpsToBytesPerSecond(spec.baseline_gbps);
  options.bucket_bytes = spec.bucket_gib * kGiB;
  return options;
}

LambdaNetworkSpec DefaultLambdaNetworkSpec() { return LambdaNetworkSpec{}; }

}  // namespace skyrise::net
