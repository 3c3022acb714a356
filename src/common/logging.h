#ifndef PIYE_COMMON_LOGGING_H_
#define PIYE_COMMON_LOGGING_H_

#include <string>

namespace piye {

enum class LogLevel { kDebug = 0, kInfo, kWarn, kError };

/// Minimal leveled logger writing to stderr. Benchmarks raise the threshold
/// to kError so timing loops are not polluted by audit-trail chatter.
class Logger {
 public:
  /// Global severity threshold; messages below it are dropped.
  static void SetLevel(LogLevel level);
  /// Test hook: the current threshold.
  static LogLevel level();

  static void Log(LogLevel level, const std::string& component,
                  const std::string& message);

  static void Debug(const std::string& component, const std::string& message) {
    Log(LogLevel::kDebug, component, message);
  }
  static void Info(const std::string& component, const std::string& message) {
    Log(LogLevel::kInfo, component, message);
  }
  static void Warn(const std::string& component, const std::string& message) {
    Log(LogLevel::kWarn, component, message);
  }
  static void Error(const std::string& component, const std::string& message) {
    Log(LogLevel::kError, component, message);
  }
};

}  // namespace piye

#endif  // PIYE_COMMON_LOGGING_H_
