#include "net/iperf.h"

#include <algorithm>

#include "common/macros.h"
#include "common/stats.h"

namespace skyrise::net {

double IperfResult::BurstThroughput() const {
  double peak = 0;
  for (const auto& s : samples) peak = std::max(peak, s.gib_per_sec);
  return peak;
}

double IperfResult::BaselineThroughput(double trailing_fraction) const {
  if (samples.empty()) return 0;
  const size_t start =
      static_cast<size_t>(samples.size() * (1.0 - trailing_fraction));
  double bytes = 0;
  SimDuration time = 0;
  for (size_t i = start; i < samples.size(); ++i) {
    bytes += samples[i].bytes;
    time += samples.size() > 1 && i + 1 < samples.size()
                ? samples[i + 1].time - samples[i].time
                : 0;
  }
  // Use window count * interval for the trailing duration.
  const size_t count = samples.size() - start;
  if (count < 2) return samples.back().gib_per_sec;
  const SimDuration interval = samples[1].time - samples[0].time;
  return GiBPerSecond(static_cast<int64_t>(bytes),
                      static_cast<SimDuration>(count) * interval);
}

double IperfResult::EstimatedBucketBytes() const {
  if (samples.empty()) return 0;
  const double baseline = BaselineThroughput();
  const SimDuration interval =
      samples.size() > 1 ? samples[1].time - samples[0].time : Millis(20);
  double above = 0;
  for (const auto& s : samples) {
    if (s.gib_per_sec <= baseline * 1.5) break;  // Burst has drained.
    above += s.bytes - baseline * kGiB * ToSeconds(interval);
  }
  return std::max(0.0, above);
}

IperfResult RunIperf(Fabric* fabric, Nic* client, Nic* server,
                     const IperfConfig& config, SimTime start) {
  MultiIperfResult multi =
      RunIperfConcurrent(fabric, {client}, {server}, config, start);
  return std::move(multi.per_client[0]);
}

MultiIperfResult RunIperfConcurrent(Fabric* fabric,
                                    const std::vector<Nic*>& clients,
                                    const std::vector<Nic*>& servers,
                                    const IperfConfig& config,
                                    SimTime start) {
  SKYRISE_CHECK(!clients.empty());
  SKYRISE_CHECK(!servers.empty());
  MultiIperfResult out;
  out.per_client.resize(clients.size());

  std::vector<TransferId> transfer_of_client(clients.size(), 0);
  auto start_all = [&] {
    for (size_t i = 0; i < clients.size(); ++i) {
      Nic* server = servers[i % servers.size()];
      Fabric::TransferSpec spec;
      if (config.direction == Direction::kIn) {
        spec.src = server;  // Download: server egress -> client ingress.
        spec.dst = clients[i];
      } else {
        spec.src = clients[i];
        spec.dst = server;
      }
      spec.flows = config.flows;
      spec.total_bytes = -1;
      spec.vpc = config.vpc;
      transfer_of_client[i] = fabric->StartTransfer(spec);
    }
  };
  auto stop_all = [&] {
    for (size_t i = 0; i < clients.size(); ++i) {
      if (transfer_of_client[i] != 0) {
        fabric->StopTransfer(transfer_of_client[i]);
        transfer_of_client[i] = 0;
      }
    }
  };

  start_all();
  const SimDuration dt = config.sample_interval;
  bool paused = false;
  for (SimTime t = 0; t < config.duration; t += dt) {
    const SimTime now = start + t;
    // Handle the optional mid-run traffic pause.
    if (config.pause_duration > 0) {
      const bool in_pause =
          t >= config.pause_at && t < config.pause_at + config.pause_duration;
      if (in_pause && !paused) {
        stop_all();
        for (Nic* c : clients) c->NotifyIdle();
        paused = true;
      } else if (!in_pause && paused) {
        start_all();
        paused = false;
      }
    }

    fabric->Step(now, dt);

    double window_total = 0;
    for (size_t i = 0; i < clients.size(); ++i) {
      const double bytes = transfer_of_client[i] != 0
                               ? fabric->LastWindowBytes(transfer_of_client[i])
                               : 0.0;
      out.per_client[i].samples.push_back(
          ThroughputSample{now, bytes, GiBPerSecond(
                                           static_cast<int64_t>(bytes), dt)});
      out.per_client[i].total_bytes += bytes;
      window_total += bytes;
    }
    out.aggregate.push_back(ThroughputSample{
        now, window_total,
        GiBPerSecond(static_cast<int64_t>(window_total), dt)});
  }
  stop_all();

  for (auto& r : out.per_client) {
    r.duration = config.duration;
    r.mean_gib_per_sec = GiBPerSecond(
        static_cast<int64_t>(r.total_bytes), config.duration);
  }
  double agg_bytes = 0;
  for (const auto& s : out.aggregate) agg_bytes += s.bytes;
  out.aggregate_mean_gib_per_sec =
      GiBPerSecond(static_cast<int64_t>(agg_bytes), config.duration);
  return out;
}

}  // namespace skyrise::net
