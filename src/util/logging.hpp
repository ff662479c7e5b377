// Minimal leveled logging through a replaceable sink.
//
// Library code logs through these helpers instead of writing to std::cerr
// directly so harnesses can silence progress chatter (GRAPHNER_LOG=warn)
// or redirect it: set_log_sink() swaps the backend (default: stderr with
// a "[graphner LEVEL]" prefix), which is how tests capture span
// open/close lines and how embedders forward logs to their own systems.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace graphner::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Current threshold (default kInfo; override via GRAPHNER_LOG env var:
/// debug|info|warn|error|off).
[[nodiscard]] LogLevel log_level() noexcept;
void set_log_level(LogLevel level) noexcept;

/// Receives every message that passes the threshold. Invoked under the
/// logging mutex, so a sink need not be thread-safe but must not log
/// reentrantly.
using LogSink = std::function<void(LogLevel, std::string_view)>;

/// Replace the sink; pass nullptr (or {}) to restore the stderr default.
void set_log_sink(LogSink sink);

/// Emit `message` at `level` if it passes the threshold. Thread-safe.
void log(LogLevel level, std::string_view message);

namespace detail {
template <typename... Args>
std::string concat(Args&&... args) {
  std::ostringstream out;
  (out << ... << std::forward<Args>(args));
  return out.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(Args&&... args) {
  if (log_level() <= LogLevel::kDebug)
    log(LogLevel::kDebug, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_info(Args&&... args) {
  if (log_level() <= LogLevel::kInfo)
    log(LogLevel::kInfo, detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
void log_warn(Args&&... args) {
  if (log_level() <= LogLevel::kWarn)
    log(LogLevel::kWarn, detail::concat(std::forward<Args>(args)...));
}

}  // namespace graphner::util
