// Lightweight Status / StatusOr error propagation.
//
// The simulator and compiler report recoverable failures (bad source text,
// infeasible offload, exhausted CMA region) through values rather than
// exceptions so that call sites must consider them (Core Guidelines I.10,
// E.cr); programming errors still use assertions.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>

namespace tdo::support {

enum class StatusCode {
  kOk,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kUnimplemented,
  kInternal,
};

[[nodiscard]] const char* to_string(StatusCode code);

/// Result of an operation that can fail without a payload.
class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_{code}, message_{std::move(message)} {}

  [[nodiscard]] static Status ok() { return {}; }

  [[nodiscard]] bool is_ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

[[nodiscard]] Status invalid_argument(std::string message);
[[nodiscard]] Status not_found(std::string message);
[[nodiscard]] Status out_of_range(std::string message);
[[nodiscard]] Status resource_exhausted(std::string message);
[[nodiscard]] Status failed_precondition(std::string message);
[[nodiscard]] Status unimplemented(std::string message);
[[nodiscard]] Status internal_error(std::string message);

/// Either a value or an error Status. Minimal Expected-style wrapper.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value) : state_{std::move(value)} {}  // NOLINT: implicit by design
  StatusOr(Status status) : state_{std::move(status)} {
    assert(!std::get<Status>(state_).is_ok() &&
           "StatusOr must not be constructed from an OK status");
  }

  [[nodiscard]] bool is_ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return is_ok(); }

  [[nodiscard]] const T& value() const& {
    assert(is_ok());
    return std::get<T>(state_);
  }
  [[nodiscard]] T& value() & {
    assert(is_ok());
    return std::get<T>(state_);
  }
  [[nodiscard]] T&& value() && {
    assert(is_ok());
    return std::get<T>(std::move(state_));
  }

  [[nodiscard]] Status status() const {
    if (is_ok()) return Status::ok();
    return std::get<Status>(state_);
  }

  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }
  [[nodiscard]] T* operator->() { return &value(); }

  /// Returns `value()` when OK, otherwise `fallback`.
  [[nodiscard]] T value_or(T fallback) const {
    return is_ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> state_;
};

/// Propagates a non-OK status out of the enclosing function.
#define TDO_RETURN_IF_ERROR(expr)                     \
  do {                                                \
    ::tdo::support::Status tdo_status_ = (expr);      \
    if (!tdo_status_.is_ok()) return tdo_status_;     \
  } while (false)

}  // namespace tdo::support
