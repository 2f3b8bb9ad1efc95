// Status / StatusOr error handling in the Arrow / RocksDB idiom.
//
// All fallible public APIs in this library return Status (or StatusOr<T>)
// instead of throwing exceptions, so that callers embedded in database
// engines can propagate errors without unwinding.

#ifndef SIMPUSH_COMMON_STATUS_H_
#define SIMPUSH_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace simpush {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kNotFound,
  kIOError,
  kFailedPrecondition,
  kInternal,
  kDeadlineExceeded,
  kCancelled,
  /// The caller may not do this here (a disabled feature).
  kPermissionDenied,
  /// The operation exists but does not support this form of request.
  kUnimplemented,
  /// The request exceeds a configured size cap.
  kResourceExhausted,
};

/// Lightweight status object: OK carries no allocation.
///
/// [[nodiscard]] at class level: ignoring a returned Status silently
/// swallows the error, so every deliberate discard must say so with a
/// (void) cast — the compiler flags the rest.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  /// Constructs a status with the given code and message.
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
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: node out of range".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value of type T or an error Status. Mirrors arrow::Result.
/// [[nodiscard]] for the same reason as Status: a discarded StatusOr
/// drops both the error and the computed value.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit construction from a value (success).
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT
  /// Implicit construction from an error status. Must not be OK.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Access the value. Precondition: ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` when holding an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

/// Propagates a non-OK status to the caller.
#define SIMPUSH_RETURN_NOT_OK(expr)            \
  do {                                         \
    ::simpush::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (0)

/// Assigns the value of a StatusOr expression or propagates its error.
/// The temporary is named per line, so one scope may use it repeatedly.
#define SIMPUSH_ASSIGN_OR_RETURN(lhs, expr)                               \
  SIMPUSH_ASSIGN_OR_RETURN_IMPL(SIMPUSH_STATUS_CONCAT(_so_, __LINE__), lhs, \
                                expr)
#define SIMPUSH_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()
#define SIMPUSH_STATUS_CONCAT(a, b) SIMPUSH_STATUS_CONCAT_INNER(a, b)
#define SIMPUSH_STATUS_CONCAT_INNER(a, b) a##b

}  // namespace simpush

#endif  // SIMPUSH_COMMON_STATUS_H_
