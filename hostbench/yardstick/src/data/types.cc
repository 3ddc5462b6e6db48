#include "data/types.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace skyrise::data {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
    case DataType::kDate:
      return "date";
  }
  return "?";
}

namespace {
// Days from civil date algorithm (Howard Hinnant), relative to 1970-01-01.
// constexpr so kTpchEpoch is compile-time initialized: callers in other
// translation units may run during their own static initialization.
constexpr int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}
constexpr int64_t kTpchEpoch = DaysFromCivil(1992, 1, 1);
}  // namespace

int32_t DaysSinceEpoch(int year, int month, int day) {
  return static_cast<int32_t>(DaysFromCivil(year, month, day) - kTpchEpoch);
}

std::string FormatDate(int32_t days_since_epoch) {
  // Invert DaysFromCivil.
  int64_t z = days_since_epoch + kTpchEpoch + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;
  const unsigned m = mp + (mp < 10 ? 3 : -9);
  return StrFormat("%04lld-%02u-%02u", static_cast<long long>(y + (m <= 2)),
                   m, d);
}

}  // namespace skyrise::data
