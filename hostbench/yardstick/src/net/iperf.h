#pragma once

#include <vector>

#include "common/units.h"
#include "net/fabric.h"
#include "net/nic.h"

/// \file iperf.h
/// iPerf3-style closed-loop traffic measurement on the simulated fabric,
/// mirroring the paper's network I/O measurement function: a client pushes or
/// pulls random data for a fixed duration while throughput is sampled at
/// fixed (default 20 ms) intervals.

namespace skyrise::net {

struct ThroughputSample {
  SimTime time = 0;        ///< Window start.
  double bytes = 0;        ///< Bytes moved in the window.
  double gib_per_sec = 0;  ///< Window throughput.
};

struct IperfResult {
  std::vector<ThroughputSample> samples;
  double total_bytes = 0;
  SimDuration duration = 0;
  double mean_gib_per_sec = 0;

  /// Peak window throughput (GiB/s).
  double BurstThroughput() const;
  /// Mean throughput over the trailing fraction of the run, after the burst
  /// has drained (GiB/s).
  double BaselineThroughput(double trailing_fraction = 0.25) const;
  /// Bytes moved above baseline before throughput first drops to the
  /// baseline level — an estimate of the token bucket size.
  double EstimatedBucketBytes() const;
};

struct IperfConfig {
  SimDuration duration = Seconds(5);
  SimDuration sample_interval = Millis(20);
  int flows = 4;                    ///< One TCP connection per vCPU.
  Direction direction = Direction::kIn;  ///< kIn: server->client download.
  /// Optional traffic pause (e.g., the paper's 3 s sleep) inserted at
  /// `pause_at` for `pause_duration`; 0 disables.
  SimDuration pause_at = 0;
  SimDuration pause_duration = 0;
  VpcId vpc = kNoVpc;
};

/// Runs a single client/server measurement. `client` is the NIC under test;
/// `server` should be an UnlimitedNic so it never bottlenecks.
IperfResult RunIperf(Fabric* fabric, Nic* client, Nic* server,
                     const IperfConfig& config, SimTime start = 0);

/// Runs `clients.size()` concurrent measurements (one server per up to 10
/// clients is the paper setup; here servers are unlimited so one per client
/// is equivalent). Returns per-client results plus an aggregate series.
struct MultiIperfResult {
  std::vector<IperfResult> per_client;
  std::vector<ThroughputSample> aggregate;
  double aggregate_mean_gib_per_sec = 0;
};

MultiIperfResult RunIperfConcurrent(Fabric* fabric,
                                    const std::vector<Nic*>& clients,
                                    const std::vector<Nic*>& servers,
                                    const IperfConfig& config,
                                    SimTime start = 0);

}  // namespace skyrise::net
