#include "common/status.h"

#include <cstdio>
#include <cstdlib>

#include "common/macros.h"

namespace skyrise {

namespace internal {
void CheckFailed(const char* file, int line, const char* message) {
  std::fprintf(stderr, "SKYRISE_CHECK failed at %s:%d: %s\n", file, line,
               message);
  std::abort();
}
}  // namespace internal

Status::Status(StatusCode code, std::string message)
    : state_(std::make_shared<const State>(State{code, std::move(message)})) {}

const std::string& Status::message() const {
  static const std::string kEmpty;
  return state_ ? state_->message : kEmpty;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code());
  out += ": ";
  out += message();
  return out;
}

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
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kCancelled:
      return "Cancelled";
  }
  return "Unknown";
}

}  // namespace skyrise
