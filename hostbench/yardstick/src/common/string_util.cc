#include "common/string_util.h"

#include <cstdio>

#include "common/units.h"

namespace skyrise {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> StrSplit(const std::string& s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string FormatBytes(int64_t bytes) {
  const double b = static_cast<double>(bytes);
  if (bytes >= kTiB) return StrFormat("%.2f TiB", b / kTiB);
  if (bytes >= kGiB) return StrFormat("%.2f GiB", b / kGiB);
  if (bytes >= kMiB) return StrFormat("%.2f MiB", b / kMiB);
  if (bytes >= kKiB) return StrFormat("%.2f KiB", b / kKiB);
  return StrFormat("%ld B", static_cast<long>(bytes));
}

std::string FormatDuration(SimDuration d) {
  if (d >= kDay) return StrFormat("%.1f d", static_cast<double>(d) / kDay);
  if (d >= kHour) return StrFormat("%.1f h", static_cast<double>(d) / kHour);
  if (d >= kMinute) {
    return StrFormat("%.1f min", static_cast<double>(d) / kMinute);
  }
  if (d >= kSecond) return StrFormat("%.2f s", ToSeconds(d));
  if (d >= kMillisecond) return StrFormat("%.2f ms", ToMillis(d));
  return StrFormat("%ld us", static_cast<long>(d));
}

}  // namespace skyrise
