#include "util/logging.h"

#include <atomic>
#include <cstdio>

namespace inband {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kInfo};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "TRACE";
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF  ";
  }
  return "?????";
}

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >= static_cast<int>(g_level.load());
}

namespace detail {

LogMessage::LogMessage(LogLevel level, std::string_view file, int line)
    : level_{level} {
  // Keep only the basename to avoid long absolute paths in every line.
  const auto slash = file.find_last_of('/');
  if (slash != std::string_view::npos) file = file.substr(slash + 1);
  stream_ << '[' << level_name(level) << "] ";
  stream_ << file << ':' << line << ": ";
}

LogMessage::~LogMessage() {
  stream_ << '\n';
  std::fputs(stream_.str().c_str(), stderr);
  (void)level_;
}

}  // namespace detail

}  // namespace inband
