#include "pricing/break_even.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/macros.h"
#include "net/instance_specs.h"

namespace skyrise::pricing {

namespace {
constexpr double kMbPerPageUnit = 1.0e6;  // Formulas use decimal MB.

double PagesPerMb(int64_t access_size_bytes) {
  return kMbPerPageUnit / static_cast<double>(access_size_bytes);
}
}  // namespace

double BreakEvenIntervalCapacityPriced(int64_t access_size_bytes,
                                       double accesses_per_second,
                                       double disk_rent_hourly,
                                       double tier1_rent_mb_hourly) {
  SKYRISE_CHECK(accesses_per_second > 0 && tier1_rent_mb_hourly > 0);
  return PagesPerMb(access_size_bytes) / accesses_per_second *
         (disk_rent_hourly / tier1_rent_mb_hourly);
}

double BreakEvenIntervalRequestPriced(int64_t access_size_bytes,
                                      double price_per_access,
                                      double tier1_rent_mb_hourly) {
  SKYRISE_CHECK(tier1_rent_mb_hourly > 0);
  const double rent_per_second_per_mb = tier1_rent_mb_hourly / 3600.0;
  return PagesPerMb(access_size_bytes) * price_per_access /
         rent_per_second_per_mb;
}

double BreakEvenAccessSizeMb(double price_per_request,
                             double transfer_fee_per_gib,
                             double server_mb_per_hour,
                             double server_rent_hourly) {
  SKYRISE_CHECK(server_mb_per_hour > 0 && server_rent_hourly > 0);
  // VM network cost per MB moved.
  const double vm_cost_per_mb = server_rent_hourly / server_mb_per_hour;
  const double fee_per_mb = transfer_fee_per_gib / 1073.741824;  // GiB -> MB.
  if (fee_per_mb >= vm_cost_per_mb) {
    return std::numeric_limits<double>::infinity();
  }
  return price_per_request / (vm_cost_per_mb - fee_per_mb);
}

int RecommendLambdaMemoryMib(int64_t peak_memory_bytes, double headroom) {
  SKYRISE_CHECK(peak_memory_bytes >= 0 && headroom >= 1.0);
  constexpr int kStepMib = 128;
  constexpr int kMinMib = 128;
  constexpr int kMaxMib = 10240;
  const double needed_mib =
      static_cast<double>(peak_memory_bytes) * headroom / (1024.0 * 1024.0);
  const int steps = static_cast<int>(std::ceil(needed_mib / kStepMib));
  return std::clamp(steps * kStepMib, kMinMib, kMaxMib);
}

std::vector<BeiRow> ComputeStorageHierarchyTable(
    const PriceList& prices, const std::vector<int64_t>& access_sizes) {
  const StorageHierarchyPricing& h = prices.hierarchy();
  const double ram_mb_hourly = h.ram_gib_hour / 1024.0;  // $/MiB-h ~= $/MB-h.
  const double ssd_mb_hourly = h.ssd_device_hourly / (h.ssd_device_gb * 1000.0);

  auto device_aps = [](double max_iops, double max_bw_mb_s, int64_t size) {
    return std::min(max_iops,
                    max_bw_mb_s * 1.0e6 / static_cast<double>(size));
  };

  const auto s3 = prices.Storage("s3").ValueOrDie();
  const auto s3x = prices.Storage("s3express").ValueOrDie();

  auto request_price = [](const StorageServicePricing& svc, int64_t size,
                          double extra_transfer_gib = 0.0) {
    double price = svc.read_request;
    const int64_t billable =
        std::max<int64_t>(0, size - svc.transfer_free_bytes_per_request);
    price += svc.read_transfer_gib * ToGiB(billable);
    price += extra_transfer_gib * ToGiB(size);
    return price;
  };

  std::vector<BeiRow> rows;
  {
    BeiRow row{"RAM/SSD", {}};
    for (int64_t size : access_sizes) {
      row.interval_seconds.push_back(BreakEvenIntervalCapacityPriced(
          size, device_aps(h.ssd_max_iops, h.ssd_max_bandwidth_mb_s, size),
          h.ssd_device_hourly, ram_mb_hourly));
    }
    rows.push_back(std::move(row));
  }
  {
    BeiRow row{"RAM/EBS", {}};
    for (int64_t size : access_sizes) {
      row.interval_seconds.push_back(BreakEvenIntervalCapacityPriced(
          size, device_aps(h.ebs_max_iops, h.ebs_max_bandwidth_mb_s, size),
          h.ebs_volume_hourly, ram_mb_hourly));
    }
    rows.push_back(std::move(row));
  }
  {
    BeiRow row{"RAM/S3 Standard", {}};
    for (int64_t size : access_sizes) {
      row.interval_seconds.push_back(BreakEvenIntervalRequestPriced(
          size, request_price(s3, size), ram_mb_hourly));
    }
    rows.push_back(std::move(row));
  }
  {
    BeiRow row{"RAM/S3 Express", {}};
    for (int64_t size : access_sizes) {
      row.interval_seconds.push_back(BreakEvenIntervalRequestPriced(
          size, request_price(s3x, size), ram_mb_hourly));
    }
    rows.push_back(std::move(row));
  }
  {
    BeiRow row{"SSD/S3 Standard", {}};
    for (int64_t size : access_sizes) {
      row.interval_seconds.push_back(BreakEvenIntervalRequestPriced(
          size, request_price(s3, size), ssd_mb_hourly));
    }
    rows.push_back(std::move(row));
  }
  {
    BeiRow row{"SSD/S3 Express", {}};
    for (int64_t size : access_sizes) {
      row.interval_seconds.push_back(BreakEvenIntervalRequestPriced(
          size, request_price(s3x, size), ssd_mb_hourly));
    }
    rows.push_back(std::move(row));
  }
  {
    BeiRow row{"SSD/S3 X-Region", {}};
    for (int64_t size : access_sizes) {
      row.interval_seconds.push_back(BreakEvenIntervalRequestPriced(
          size, request_price(s3, size, h.cross_region_transfer_gib),
          ssd_mb_hourly));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<BeasCell> ComputeShuffleBeasTable(const PriceList& prices) {
  struct Column {
    const char* instance;
    bool reserved;
  };
  const Column columns[] = {{"c6g.xlarge", false},
                            {"c6g.8xlarge", false},
                            {"c6gn.xlarge", false},
                            {"c6gn.xlarge", true}};
  std::vector<BeasCell> cells;
  for (const auto& col : columns) {
    const auto ec2 = prices.Ec2(col.instance).ValueOrDie();
    const auto spec = net::FindInstanceSpec(col.instance).ValueOrDie();
    const double mb_per_hour =
        GbpsToBytesPerSecond(spec.baseline_gbps) / 1.0e6 * 3600.0;
    const double rent =
        col.reserved ? ec2.reserved_hourly : ec2.on_demand_hourly;
    for (const char* storage : {"s3", "s3express"}) {
      const auto svc = prices.Storage(storage).ValueOrDie();
      // Shuffle: every byte is written once and read once; request price and
      // transfer fees apply on both sides. We follow the paper in sizing by
      // the read path (reads dominate: every downstream worker reads every
      // upstream partition object).
      const double fee =
          svc.read_transfer_gib + 0.0;  // Read-side transfer fee per GiB.
      cells.push_back(BeasCell{
          col.instance, col.reserved, storage,
          BreakEvenAccessSizeMb(svc.read_request, fee, mb_per_hour, rent)});
    }
  }
  return cells;
}

}  // namespace skyrise::pricing
