#include "support/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace tdo::support {
namespace {

std::atomic<LogTap> g_tap{nullptr};
std::mutex g_sink_mutex;

}  // namespace

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

void set_log_tap(LogTap tap) { g_tap.store(tap, std::memory_order_release); }

void log_message(LogLevel level, const char* component, const std::string& text) {
  if (level < kLogThreshold) return;
  if (LogTap tap = g_tap.load(std::memory_order_acquire); tap != nullptr) {
    tap(level, component, text);
  }
  const std::scoped_lock lock(g_sink_mutex);
  std::fprintf(stderr, "[%-5s] %-10s %s\n", to_string(level), component, text.c_str());
}

}  // namespace tdo::support
