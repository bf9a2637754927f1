// Minimal logging and invariant checking.
//
// CHECK-style macros abort on programming errors; LOG writes a timestamped
// line to stderr. These are intentionally tiny: the library has no external
// dependencies.
#ifndef TJ_COMMON_LOGGING_H_
#define TJ_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <source_location>
#include <sstream>
#include <string>
#include <utility>

#include "common/status.h"

namespace tj {
namespace internal {

enum class LogLevel { kDebug, kInfo, kWarning, kError, kFatal };

/// Accumulates a log line and emits it (to stderr) on destruction.
/// kFatal aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Returns the current minimum level that is emitted (default kInfo).
LogLevel GetLogLevel();
/// Sets the minimum emitted level; returns the previous one.
LogLevel SetLogLevel(LogLevel level);

}  // namespace internal
}  // namespace tj

#define TJ_LOG(level)                                                       \
  ::tj::internal::LogMessage(::tj::internal::LogLevel::k##level, __FILE__, \
                             __LINE__)

#define TJ_CHECK(cond)                                              \
  if (!(cond))                                                      \
  TJ_LOG(Fatal) << "Check failed: " #cond " "

#define TJ_CHECK_OP(op, a, b)                                             \
  if (!((a)op(b)))                                                        \
  TJ_LOG(Fatal) << "Check failed: " #a " " #op " " #b " (" << (a) << " vs " \
                << (b) << ") "

#define TJ_CHECK_EQ(a, b) TJ_CHECK_OP(==, a, b)
#define TJ_CHECK_NE(a, b) TJ_CHECK_OP(!=, a, b)
#define TJ_CHECK_LT(a, b) TJ_CHECK_OP(<, a, b)
#define TJ_CHECK_LE(a, b) TJ_CHECK_OP(<=, a, b)
#define TJ_CHECK_GT(a, b) TJ_CHECK_OP(>, a, b)
#define TJ_CHECK_GE(a, b) TJ_CHECK_OP(>=, a, b)

/// Aborts if a Status expression is not OK.
#define TJ_CHECK_OK(expr)                                      \
  do {                                                         \
    ::tj::Status _tj_st = (expr);                              \
    if (!_tj_st.ok())                                          \
      TJ_LOG(Fatal) << "Status not OK: " << _tj_st.ToString(); \
  } while (0)

namespace tj {

/// Unwraps a Result that cannot fail in context (tests, benches, examples
/// on fault-free fabrics); aborts with the error, reported at the caller's
/// line, otherwise. Library code propagates errors instead.
template <typename T>
T ValueOrDie(Result<T> result,
             std::source_location loc = std::source_location::current()) {
  if (!result.ok()) {
    internal::LogMessage(internal::LogLevel::kFatal, loc.file_name(),
                         static_cast<int>(loc.line()))
        << "Result not OK: " << result.status().ToString();
  }
  return std::move(result).value();
}

}  // namespace tj

#endif  // TJ_COMMON_LOGGING_H_
