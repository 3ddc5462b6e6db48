#pragma once

#include <sstream>
#include <string>

/// \file logging.h
/// Minimal leveled logging to stderr. Simulation-heavy code keeps logging off
/// the hot path; the default level is kWarning so test output stays clean.

namespace skyrise {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the global minimum level that will be emitted.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace internal

#define SKYRISE_LOG(level)                                             \
  if (static_cast<int>(::skyrise::LogLevel::level) <                   \
      static_cast<int>(::skyrise::GetLogLevel())) {                    \
  } else                                                               \
    ::skyrise::internal::LogMessage(::skyrise::LogLevel::level,        \
                                    __FILE__, __LINE__)                \
        .stream()

}  // namespace skyrise
