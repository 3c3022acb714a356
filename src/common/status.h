#ifndef PIYE_COMMON_STATUS_H_
#define PIYE_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace piye {

/// Error categories used across the PRIVATE-IYE libraries.
///
/// `kPrivacyViolation` is the distinguished code produced when a policy,
/// auditor, or the mediator's privacy control refuses to release data; callers
/// are expected to branch on it (a refused result is a *normal* outcome of a
/// privacy-preserving integration system, not an internal failure).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kPrivacyViolation,
  kParseError,
  kOutOfRange,
  kNotImplemented,
  kInternal,
  kUnavailable,        ///< transient failure of an autonomous remote source
  kDeadlineExceeded,   ///< a per-source or per-query deadline expired
  kResourceExhausted,  ///< load shed: admission refused the query; retry later
  kCancelled,          ///< the caller cooperatively cancelled the operation
  kDataLoss,           ///< bytes failed their checksum: damaged in transit
};

/// Returns a stable human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// Arrow/RocksDB-style status object. The library does not throw exceptions
/// across API boundaries; every fallible operation returns a `Status` or a
/// `Result<T>` (see result.h).
/// [[nodiscard]]: a dropped Status is a swallowed failure — the compiler
/// rejects ignoring one unless the call site explicitly `(void)`s it with a
/// justification comment (enforced by piye_lint's status-discard rule).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status PermissionDenied(std::string msg) {
    return Status(StatusCode::kPermissionDenied, std::move(msg));
  }
  static Status PrivacyViolation(std::string msg) {
    return Status(StatusCode::kPrivacyViolation, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsPrivacyViolation() const { return code_ == StatusCode::kPrivacyViolation; }
  bool IsPermissionDenied() const { return code_ == StatusCode::kPermissionDenied; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsParseError() const { return code_ == StatusCode::kParseError; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsDeadlineExceeded() const { return code_ == StatusCode::kDeadlineExceeded; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsCancelled() const { return code_ == StatusCode::kCancelled; }
  bool IsDataLoss() const { return code_ == StatusCode::kDataLoss; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && msg_ == other.msg_;
  }

 private:
  StatusCode code_;
  std::string msg_;
};

}  // namespace piye

#endif  // PIYE_COMMON_STATUS_H_
