#include "support/status.hpp"

namespace tdo::support {

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kOutOfRange: return "OUT_OF_RANGE";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kUnimplemented: return "UNIMPLEMENTED";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

std::string Status::to_string() const {
  if (is_ok()) return "OK";
  std::string out = ::tdo::support::to_string(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status invalid_argument(std::string message) {
  return {StatusCode::kInvalidArgument, std::move(message)};
}
Status not_found(std::string message) {
  return {StatusCode::kNotFound, std::move(message)};
}
Status out_of_range(std::string message) {
  return {StatusCode::kOutOfRange, std::move(message)};
}
Status resource_exhausted(std::string message) {
  return {StatusCode::kResourceExhausted, std::move(message)};
}
Status failed_precondition(std::string message) {
  return {StatusCode::kFailedPrecondition, std::move(message)};
}
Status unimplemented(std::string message) {
  return {StatusCode::kUnimplemented, std::move(message)};
}
Status internal_error(std::string message) {
  return {StatusCode::kInternal, std::move(message)};
}

}  // namespace tdo::support
