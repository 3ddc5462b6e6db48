#pragma once

#include <cstdint>
#include <string>

/// \file units.h
/// Byte-size and simulated-time units. Simulated time is an int64 count of
/// microseconds since simulation start; byte sizes are int64 byte counts.

namespace skyrise {

using SimTime = int64_t;      ///< Microseconds since simulation start.
using SimDuration = int64_t;  ///< Microseconds.

constexpr SimDuration kMicrosecond = 1;
constexpr SimDuration kMillisecond = 1000;
constexpr SimDuration kSecond = 1000 * kMillisecond;
constexpr SimDuration kMinute = 60 * kSecond;
constexpr SimDuration kHour = 60 * kMinute;
constexpr SimDuration kDay = 24 * kHour;

constexpr SimDuration Micros(double x) {
  return static_cast<SimDuration>(x * kMicrosecond);
}
constexpr SimDuration Millis(double x) {
  return static_cast<SimDuration>(x * kMillisecond);
}
constexpr SimDuration Seconds(double x) {
  return static_cast<SimDuration>(x * kSecond);
}
constexpr SimDuration Minutes(double x) {
  return static_cast<SimDuration>(x * kMinute);
}
constexpr SimDuration Hours(double x) { return static_cast<SimDuration>(x * kHour); }

constexpr double ToSeconds(SimDuration d) {
  return static_cast<double>(d) / kSecond;
}
constexpr double ToMillis(SimDuration d) {
  return static_cast<double>(d) / kMillisecond;
}

constexpr int64_t kKiB = 1024;
constexpr int64_t kMiB = 1024 * kKiB;
constexpr int64_t kGiB = 1024 * kMiB;
constexpr int64_t kTiB = 1024 * kGiB;
constexpr int64_t kKB = 1000;
constexpr int64_t kMB = 1000 * kKB;
constexpr int64_t kGB = 1000 * kMB;

constexpr int64_t KiB(double x) { return static_cast<int64_t>(x * kKiB); }
constexpr int64_t MiB(double x) { return static_cast<int64_t>(x * kMiB); }
constexpr int64_t GiB(double x) { return static_cast<int64_t>(x * kGiB); }

constexpr double ToMiB(int64_t bytes) {
  return static_cast<double>(bytes) / kMiB;
}
constexpr double ToGiB(int64_t bytes) {
  return static_cast<double>(bytes) / kGiB;
}

/// Converts a byte count and a duration into a rate in GiB/s.
constexpr double GiBPerSecond(int64_t bytes, SimDuration d) {
  return d == 0 ? 0.0 : ToGiB(bytes) / ToSeconds(d);
}
constexpr double MiBPerSecond(int64_t bytes, SimDuration d) {
  return d == 0 ? 0.0 : ToMiB(bytes) / ToSeconds(d);
}

/// Gbps (decimal, network convention) → bytes per second.
constexpr double GbpsToBytesPerSecond(double gbps) { return gbps * 1e9 / 8.0; }
/// Bytes per second → Gbps (decimal).
constexpr double BytesPerSecondToGbps(double bps) { return bps * 8.0 / 1e9; }

/// Human-readable byte size, e.g. "1.5 GiB".
std::string FormatBytes(int64_t bytes);
/// Human-readable duration, e.g. "2.5 s", "130 ms", "3.2 min".
std::string FormatDuration(SimDuration d);

}  // namespace skyrise
