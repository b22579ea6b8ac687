// Minimal leveled logger.
//
// Simulation components log through a single global sink. The threshold is a
// constant: only Warn and Error lines are emitted, so a bench's stderr
// carries problems only.
#pragma once

#include <sstream>
#include <string>

namespace tdo::support {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

[[nodiscard]] const char* to_string(LogLevel level);

/// Log threshold; messages below it are discarded at the call site.
inline constexpr LogLevel kLogThreshold = LogLevel::kWarn;

/// Emits one formatted line (used by the TDO_LOG macro; rarely called raw).
void log_message(LogLevel level, const char* component, const std::string& text);

/// Optional secondary sink: every line that passes the global threshold is
/// also handed to the tap (obs/trace.hpp mirrors Warn+ lines onto the trace
/// timeline). A plain function pointer so installing/clearing is one atomic
/// store; pass nullptr to remove.
using LogTap = void (*)(LogLevel level, const char* component,
                        const std::string& text);
void set_log_tap(LogTap tap);

namespace detail {
/// Stream-collects one log statement, emitting on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, const char* component)
      : level_{level}, component_{component} {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log_message(level_, component_, stream_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* component_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace tdo::support

/// Usage: TDO_LOG(kWarn, "cim") << "wrote " << n << " cells";
#define TDO_LOG(level, component)                                          \
  if (::tdo::support::LogLevel::level < ::tdo::support::kLogThreshold) {  \
  } else                                                                   \
    ::tdo::support::detail::LogLine(::tdo::support::LogLevel::level, component)
