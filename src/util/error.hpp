// Error handling primitives.
//
// The library follows a two-tier convention (see DESIGN.md §7):
//  * `gear::Error` (an exception) for failures that indicate a broken
//    invariant or unusable input — corrupt archive, unknown digest, I/O error.
//  * `StatusOr<T>` for expected, recoverable "not found"-style outcomes on
//    hot paths (cache lookups, registry queries).
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace gear {

/// Category of a failure; carried by every Error for programmatic matching.
enum class ErrorCode {
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kCorruptData,
  kOutOfSpace,
  kUnsupported,
  kInternal,
};

/// Returns a stable human-readable name for an ErrorCode.
constexpr const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kAlreadyExists: return "already_exists";
    case ErrorCode::kCorruptData: return "corrupt_data";
    case ErrorCode::kOutOfSpace: return "out_of_space";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

/// Exception type thrown across the library.
class Error : public std::runtime_error {
 public:
  Error(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(error_code_name(code)) + ": " + message),
        code_(code),
        message_(message) {}

  ErrorCode code() const noexcept { return code_; }
  /// what() without the leading code name: what a StatusOr carries.
  const std::string& message() const noexcept { return message_; }

 private:
  ErrorCode code_;
  std::string message_;
};

[[noreturn]] inline void throw_error(ErrorCode code, const std::string& msg) {
  throw Error(code, msg);
}

template <typename T>
class StatusOr;

/// Unwraps a StatusOr or rethrows its error with call-site context
/// prepended ("gc mark: manifest nginx:v3: not found: ..."), so a failure
/// deep inside a sweep names the ref/path/digest that triggered it instead
/// of only the producer's message.
template <typename T>
T unwrap(StatusOr<T>&& s, const std::string& context) {
  if (!s.ok()) throw_error(s.code(), context + ": " + s.message());
  return std::move(s).value();
}

/// Lightweight value-or-status result for recoverable outcomes.
///
/// Unlike std::optional it records *why* the value is absent, which callers
/// use to distinguish a clean miss from an error they must surface.
template <typename T>
class StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)), code_(std::nullopt) {}  // NOLINT
  StatusOr(ErrorCode code, std::string message)
      : value_(std::nullopt), code_(code), message_(std::move(message)) {}

  bool ok() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return ok(); }

  ErrorCode code() const { return code_.value_or(ErrorCode::kInternal); }
  const std::string& message() const { return message_; }

  /// Returns the contained value or throws the carried error.
  T& value() & {
    require();
    return *value_;
  }
  const T& value() const& {
    require();
    return *value_;
  }
  T&& value() && {
    require();
    return std::move(*value_);
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

 private:
  void require() const {
    if (!value_.has_value()) throw Error(code(), message_);
  }

  std::optional<T> value_;
  std::optional<ErrorCode> code_;
  std::string message_;
};

}  // namespace gear
