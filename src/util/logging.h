// Minimal leveled logging.
//
// A Logger is a stream-style sink guarded by a global level. There is no
// process-wide clock: a call site that knows the simulated time prints it
// itself. Logging is for humans — structured experiment output goes through
// telemetry/ and util/csv.h instead.
//
// Usage:
//   LOG_INFO() << '[' << format_duration(now) << "] backend " << id;
#pragma once

#include <sstream>
#include <string_view>

#include "util/time.h"

namespace inband {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

// Global minimum level; messages below it are discarded cheaply.
void set_log_level(LogLevel level);
LogLevel log_level();

namespace detail {

class LogMessage {
 public:
  LogMessage(LogLevel level, std::string_view file, int line);
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail

bool log_enabled(LogLevel level);

}  // namespace inband

#define INBAND_LOG(level)                        \
  if (!::inband::log_enabled(level)) {           \
  } else                                         \
    ::inband::detail::LogMessage(level, __FILE__, __LINE__)

#define LOG_TRACE() INBAND_LOG(::inband::LogLevel::kTrace)
#define LOG_DEBUG() INBAND_LOG(::inband::LogLevel::kDebug)
#define LOG_INFO() INBAND_LOG(::inband::LogLevel::kInfo)
#define LOG_WARN() INBAND_LOG(::inband::LogLevel::kWarn)
#define LOG_ERROR() INBAND_LOG(::inband::LogLevel::kError)
