// Structured error propagation for the serving stack.
//
// weg::Status carries an error code + human-readable message; weg::Expected<T>
// is a Status-or-value sum type (the subset of std::expected the serving
// layer needs, buildable on C++20). The contract every Status-returning
// mutation in this repo follows:
//
//   * An OK return means the operation completed in full.
//   * A non-OK return from a bulk update means the structure was NOT
//     modified: validation and injected-fault checks run before the first
//     write, so callers can retry, drop the batch, or surface the error
//     without rebuilding anything. (Exceptions thrown mid-operation — real
//     allocation failure — are the one escape hatch; the sharded layer's
//     two-phase commit catches those in prepare, before any shard changes,
//     and returns a rolled-back non-OK Status.)
//
// Codes follow the absl/gRPC canonical-space naming so readers map them
// instantly; only the subset this codebase produces is defined.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace weg {

enum class StatusCode : uint8_t {
  kOk = 0,
  // Caller-supplied data is malformed (NaN/inf coordinate, inverted
  // interval, duplicate record id). Retrying the identical call fails again.
  kInvalidArgument = 1,
  // An allocation or capacity budget was exhausted. Retrying may succeed
  // once resources free up.
  kResourceExhausted = 2,
  // The operation requires state the object is not in (e.g. a poisoned
  // sub-batch consumed as if it were a result).
  kFailedPrecondition = 3,
  // A deadline (scheduler watchdog) expired before the operation finished.
  kDeadlineExceeded = 4,
  // A deterministic test fault (src/parallel/fault.h) tripped. Never
  // produced in production configurations.
  kFaultInjected = 5,
  // Invariant violation inside the library.
  kInternal = 6,
};

inline const char* status_code_name(StatusCode c) {
  switch (c) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kFaultInjected:
      return "FAULT_INJECTED";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

class [[nodiscard]] Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status FaultInjected(std::string msg) {
    return Status(StatusCode::kFaultInjected, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    if (ok()) return "OK";
    return std::string(status_code_name(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;  // messages are diagnostics, not identity
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

// Status-or-value. Construction from a value yields ok(); construction from
// a non-OK Status yields an error (constructing from an OK Status without a
// value is an internal error and is normalized to kInternal so value() can
// keep its no-value precondition).
template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : value_(std::move(value)), has_value_(true) {}
  Expected(Status status) : status_(std::move(status)) {
    if (status_.ok()) {
      status_ = Status::Internal("Expected constructed from OK status");
    }
  }

  bool ok() const { return has_value_; }
  explicit operator bool() const { return has_value_; }

  // Precondition: ok(). The Status of an ok() Expected is OK.
  const T& value() const& { return value_; }
  T& value() & { return value_; }
  T&& value() && { return std::move(value_); }
  T value_or(T fallback) const {
    return has_value_ ? value_ : std::move(fallback);
  }

  Status status() const { return has_value_ ? Status::Ok() : status_; }
  StatusCode code() const {
    return has_value_ ? StatusCode::kOk : status_.code();
  }

 private:
  Status status_;
  T value_{};
  bool has_value_ = false;
};

}  // namespace weg
