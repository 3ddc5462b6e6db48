#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "common/units.h"
#include "pricing/price_list.h"

/// \file break_even.h
/// Section 5.3 economics: the two variants of Gray's five-minute rule for
/// cloud storage tiers (capacity-priced and request-priced), and the
/// break-even access size for shuffling through object storage vs. a
/// provisioned VM cluster.

namespace skyrise::pricing {

/// Capacity-priced tier-2 (RAM vs. SSD/EBS):
///   BEI = PagesPerMB / AccessesPerSecondPerDisk
///         * RentPerHourPerDisk / RentPerHourPerMBofRAM
/// `accesses_per_second` should already account for the device bandwidth cap
/// (min(max_iops, bandwidth / access_size)).
double BreakEvenIntervalCapacityPriced(int64_t access_size_bytes,
                                       double accesses_per_second,
                                       double disk_rent_hourly,
                                       double tier1_rent_mb_hourly);

/// Request-priced tier-2 (object / KV storage):
///   BEI = PagesPerMB * PricePerAccessToTier2 / RentPerSecondPerMBofTier1
double BreakEvenIntervalRequestPriced(int64_t access_size_bytes,
                                      double price_per_access,
                                      double tier1_rent_mb_hourly);

/// Break-even shuffle access size in MB (Section 5.3.2):
///   BEAS = PricePerAccess * MBPerHourPerServer / RentPerHourPerServer
/// With a per-GiB transfer fee the fee may exceed the VM's own $/MB, in which
/// case object storage never breaks even and the result is infinity.
double BreakEvenAccessSizeMb(double price_per_request,
                             double transfer_fee_per_gib,
                             double server_mb_per_hour,
                             double server_rent_hourly);

/// Memory-config recommendation from observed execution: the smallest Lambda
/// memory setting (in the platform's 128 MiB steps, within [128 MiB, 10 GiB])
/// whose allocation covers `peak_memory_bytes` of resident query state plus
/// `headroom` slack for the runtime and allocator. Peaks beyond the largest
/// configuration clamp to it. Streaming execution lowers the peak and thus
/// the recommended (and billed) memory size.
int RecommendLambdaMemoryMib(int64_t peak_memory_bytes,
                             double headroom = 1.5);

/// One row of Table 7 (seconds, indexed by access size).
struct BeiRow {
  std::string combination;             ///< e.g. "RAM/S3 Standard".
  std::vector<double> interval_seconds;  ///< One per access size.
};

/// Computes Table 7 for the given access sizes using `prices`.
std::vector<BeiRow> ComputeStorageHierarchyTable(
    const PriceList& prices, const std::vector<int64_t>& access_sizes);

/// One cell of Table 8.
struct BeasCell {
  std::string instance_type;
  bool reserved = false;
  std::string storage_class;  ///< "s3" or "s3express".
  double access_size_mb = 0;  ///< Infinity => never breaks even.
};

/// Computes Table 8 for the paper's instance/pricing columns.
std::vector<BeasCell> ComputeShuffleBeasTable(const PriceList& prices);

}  // namespace skyrise::pricing
