// Non-exception error propagation: Status and StatusOr<T>.
//
// The library bans exceptions (see util/check.h); until now the only failure
// channels were DIVERSE_CHECK-abort and bool/optional returns with no
// diagnosis. Status carries a machine-readable code plus a human-readable
// message through the fallible entry points (data loaders, input validation
// at the TrySolve() boundary, and the fault-tolerant MapReduce executor), so a
// reducer crash or a corrupt input file degrades into a reportable error
// instead of a process abort. CHECK remains the right tool for internal
// invariants whose violation means the library itself is wrong; Status is
// for failures the *environment* can cause: bad files, bad arguments, dead
// or lying reducer tasks.

#ifndef DIVERSE_UTIL_STATUS_H_
#define DIVERSE_UTIL_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

/// Marks a function whose return value encodes success/failure (Try*
/// loaders, fallible solves, ParallelForFallible) so discarding it is a
/// compile error under -Werror=unused-result (enforced in the main build
/// and pinned by the tests/static_analysis compile-fail gate). Status and
/// StatusOr are additionally nodiscard at class level, so any function
/// returning them by value is covered even without this macro; use it for
/// bool/struct-returning fallible APIs and as explicit documentation.
#define DIVERSE_MUST_USE [[nodiscard]]

namespace diverse {

/// Canonical error space (a deliberate subset of the absl/gRPC codes; only
/// codes the library actually produces are listed).
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,    // caller-supplied value is malformed (bad k, NaN rows)
  kNotFound,           // file or resource missing
  kDataLoss,           // truncated/corrupt bytes (files, partitions)
  kDeadlineExceeded,   // task exceeded its wall-clock budget
  kResourceExhausted,  // retry budget or memory budget spent
  kFailedPrecondition, // operation undefined in the current state
  kAborted,            // task crashed / was killed (fault injection)
  kUnavailable,        // transient infrastructure failure, retryable
  kInternal,           // invariant violated across a fallible boundary
};

/// Upper-snake name, e.g. "INVALID_ARGUMENT".
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kAborted: return "ABORTED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "UNKNOWN";
}

/// A success-or-error value. Cheap to copy on success (no allocation: the
/// message is empty), movable, and annotated nodiscard so a dropped error
/// is a compile-time warning.
class [[nodiscard]] Status {
 public:
  /// OK.
  Status() = default;

  /// An error. `code` must not be kOk (use the default constructor for OK).
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    DIVERSE_CHECK(code_ != StatusCode::kOk);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "CODE: message" (just "OK" when ok).
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

inline Status OkStatus() { return Status(); }
inline Status InvalidArgumentError(std::string m) {
  return Status(StatusCode::kInvalidArgument, std::move(m));
}
inline Status NotFoundError(std::string m) {
  return Status(StatusCode::kNotFound, std::move(m));
}
inline Status DataLossError(std::string m) {
  return Status(StatusCode::kDataLoss, std::move(m));
}
inline Status DeadlineExceededError(std::string m) {
  return Status(StatusCode::kDeadlineExceeded, std::move(m));
}
inline Status ResourceExhaustedError(std::string m) {
  return Status(StatusCode::kResourceExhausted, std::move(m));
}
inline Status FailedPreconditionError(std::string m) {
  return Status(StatusCode::kFailedPrecondition, std::move(m));
}
inline Status AbortedError(std::string m) {
  return Status(StatusCode::kAborted, std::move(m));
}
inline Status UnavailableError(std::string m) {
  return Status(StatusCode::kUnavailable, std::move(m));
}
inline Status InternalError(std::string m) {
  return Status(StatusCode::kInternal, std::move(m));
}

/// A value or the error explaining its absence. Accessing value() on an
/// error CHECK-aborts (the caller must test ok() first — same contract as
/// dereferencing an empty optional, but with the error retained for
/// reporting).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// From an error. `status` must not be OK (an OK status with no value is
  /// a contract violation).
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(implicit)
    DIVERSE_CHECK(!status_.ok());
  }

  /// From a value.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT(implicit)

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & {
    DIVERSE_CHECK(ok());
    return *value_;
  }
  const T& value() const& {
    DIVERSE_CHECK(ok());
    return *value_;
  }
  T&& value() && {
    DIVERSE_CHECK(ok());
    return *std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;  // OK iff value_ holds a value
  std::optional<T> value_;
};

}  // namespace diverse

/// Propagates a non-OK Status to the caller.
#define DIVERSE_RETURN_IF_ERROR(expr)            \
  do {                                           \
    ::diverse::Status status_macro_tmp = (expr); \
    if (!status_macro_tmp.ok()) return status_macro_tmp; \
  } while (0)

#define DIVERSE_STATUS_CONCAT_INNER(a, b) a##b
#define DIVERSE_STATUS_CONCAT(a, b) DIVERSE_STATUS_CONCAT_INNER(a, b)

/// Unwraps a StatusOr expression into `lhs` or propagates its error:
///   DIVERSE_ASSIGN_OR_RETURN(PointSet points, TryLoadPointsText(path));
/// `lhs` may declare a new variable or assign to an existing one. This (or
/// an explicit ok() check) is the only sanctioned route to a StatusOr's
/// value — tools/lint.py flags naked .value() calls without a guard.
#define DIVERSE_ASSIGN_OR_RETURN(lhs, expr)                            \
  DIVERSE_ASSIGN_OR_RETURN_IMPL(                                       \
      DIVERSE_STATUS_CONCAT(statusor_macro_tmp_, __LINE__), lhs, expr)

#define DIVERSE_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                                  \
  if (!tmp.ok()) return tmp.status();                 \
  lhs = std::move(tmp).value()

#endif  // DIVERSE_UTIL_STATUS_H_
