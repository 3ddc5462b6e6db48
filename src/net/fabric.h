#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "net/nic.h"

/// \file fabric.h
/// Fluid-flow network fabric. Transfers between NICs are advanced in fixed
/// time windows; per window, rates are assigned by progressive-filling
/// max-min fairness subject to: source egress allowance, destination ingress
/// allowance, the 5 Gbps single-flow EC2 cap (multiplied by the number of
/// parallel TCP connections), and an optional per-VPC aggregate ceiling (the
/// ~20 GiB/s limit Section 4.2.2 observes for customer-owned VPCs).

namespace skyrise::net {

using TransferId = uint64_t;
using VpcId = int32_t;
constexpr VpcId kNoVpc = -1;

class Fabric {
 public:
  struct Options {
    double per_flow_cap_bytes_per_sec = GbpsToBytesPerSecond(5.0);
    /// Multiplicative lognormal jitter applied to each transfer's rate per
    /// window, modelling co-tenant contention. Sigma of the underlying
    /// normal; 0 disables jitter.
    double jitter_sigma = 0.0;
    uint64_t seed = 42;
  };

  Fabric() : Fabric(Options{}) {}
  explicit Fabric(const Options& options);

  /// Registers a VPC domain with an aggregate throughput ceiling.
  VpcId AddVpc(double aggregate_cap_bytes_per_sec);

  struct TransferSpec {
    Nic* src = nullptr;
    Nic* dst = nullptr;
    int flows = 1;                 ///< Parallel TCP connections.
    int64_t total_bytes = -1;      ///< -1 => unbounded (timed run).
    VpcId vpc = kNoVpc;
    /// Per-transfer rate ceiling in bytes/s (e.g., an S3 per-connection
    /// stream limit); 0 => no extra cap beyond the flow cap.
    double rate_cap_bytes_per_sec = 0;
    std::function<void(TransferId)> on_complete;
  };

  TransferId StartTransfer(const TransferSpec& spec);
  void StopTransfer(TransferId id);
  bool IsActive(TransferId id) const;

  /// Advances all active transfers by one window of length `dt` starting at
  /// virtual time `now`.
  void Step(SimTime now, SimDuration dt);

  /// Bytes moved by a transfer during the most recent Step.
  double LastWindowBytes(TransferId id) const;

  /// Sum of bytes moved by all transfers during the most recent Step.
  double last_window_total() const { return last_window_total_; }

  int active_transfers() const { return static_cast<int>(transfers_.size()); }

 private:
  struct Transfer {
    TransferSpec spec;
    double moved = 0;
    double last_window = 0;
  };

  Options opt_;
  Rng rng_;
  TransferId next_id_ = 1;
  std::map<TransferId, Transfer> transfers_;
  std::vector<double> vpc_caps_;
  double last_window_total_ = 0;
};

}  // namespace skyrise::net
