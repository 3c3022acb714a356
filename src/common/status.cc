#include "common/status.h"

namespace piye {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kPermissionDenied:
      return "PermissionDenied";
    case StatusCode::kPrivacyViolation:
      return "PrivacyViolation";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotImplemented:
      return "NotImplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kDataLoss:
      return "DataLoss";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += msg_;
  return out;
}

}  // namespace piye
