// Status and Result<T>: lightweight error handling without exceptions.
//
// The library reports recoverable errors through Status / Result<T> return
// values (RocksDB-style); programming errors abort via CHECK (logging.h).
#ifndef TJ_COMMON_STATUS_H_
#define TJ_COMMON_STATUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

namespace tj {

/// Error categories used across the library.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kCorruption,
  kUnimplemented,
  kInternal,
  kDataLoss,
  kUnavailable,
  kDeadlineExceeded,
};

/// Returns a human-readable name for a StatusCode ("OK", "InvalidArgument"...).
const char* StatusCodeName(StatusCode code);

/// Result of an operation that can fail without a payload.
///
/// A default-constructed Status is OK. Statuses are cheap to copy (the
/// message is only allocated on error paths).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Never holds an OK status
/// without a value.
template <typename T>
class Result {
 public:
  /*implicit*/ Result(T value) : value_(std::move(value)) {}
  /*implicit*/ Result(Status status) : value_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(value_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(value_);
  }

  /// Precondition: ok().
  const T& value() const& { return std::get<T>(value_); }
  T& value() & { return std::get<T>(value_); }
  T&& value() && { return std::get<T>(std::move(value_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> value_;
};

}  // namespace tj

/// Propagates a non-OK Status to the caller.
#define TJ_RETURN_IF_ERROR(expr)                  \
  do {                                            \
    ::tj::Status _tj_status = (expr);             \
    if (!_tj_status.ok()) return _tj_status;      \
  } while (0)

#define TJ_CONCAT_INNER(a, b) a##b
#define TJ_CONCAT(a, b) TJ_CONCAT_INNER(a, b)

/// Assigns the value of a Result expression or propagates its error. The
/// temporary is named after the line, so one scope may hold several.
#define TJ_ASSIGN_OR_RETURN(lhs, expr) \
  TJ_ASSIGN_OR_RETURN_IMPL(TJ_CONCAT(_tj_result_, __LINE__), lhs, expr)
#define TJ_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                             \
  if (!tmp.ok()) return tmp.status();            \
  lhs = std::move(tmp).value();

#endif  // TJ_COMMON_STATUS_H_
