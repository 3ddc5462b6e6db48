#pragma once

#include <cstdint>
#include <string>

/// \file types.h
/// Logical column types of the engine's vectorized data model. Dates are
/// stored as int32 days since 1992-01-01 (the TPC-H epoch); decimals are
/// scaled int64 cents, matching TPC numeric semantics without floating-point
/// drift in aggregations.

namespace skyrise::data {

enum class DataType : uint8_t {
  kInt64,
  kDouble,
  kString,
  kDate,  ///< int32 days since 1992-01-01, stored in the int64 vector.
};

const char* DataTypeName(DataType type);

/// Days since 1992-01-01 for a calendar date (proleptic Gregorian).
int32_t DaysSinceEpoch(int year, int month, int day);

/// Formats a day offset as YYYY-MM-DD.
std::string FormatDate(int32_t days_since_epoch);

}  // namespace skyrise::data
