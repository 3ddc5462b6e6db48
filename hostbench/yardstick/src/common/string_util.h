#pragma once

#include <cstdarg>
#include <string>
#include <vector>

/// \file string_util.h
/// printf-style formatting and small string helpers (GCC 12 lacks
/// std::format, so we keep a minimal shim).

namespace skyrise {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits on a single character delimiter; keeps empty tokens.
std::vector<std::string> StrSplit(const std::string& s, char delim);

/// True when `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

/// Joins tokens with a separator.
std::string StrJoin(const std::vector<std::string>& parts,
                    const std::string& sep);

}  // namespace skyrise
