#pragma once

#include <utility>
#include <variant>

#include "common/macros.h"
#include "common/status.h"

/// \file result.h
/// `Result<T>` holds either a value of type T or a non-OK Status, mirroring
/// arrow::Result. Use with SKYRISE_ASSIGN_OR_RETURN.

namespace skyrise {

template <typename T>
class [[nodiscard]] Result {
 public:
  /// Constructs from an error status. Must not be OK.
  Result(Status status) : repr_(std::move(status)) {  // NOLINT(runtime/explicit)
    SKYRISE_CHECK(!std::get<Status>(repr_).ok());
  }
  /// Constructs from a value.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// Returns the error status, or OK when a value is held.
  [[nodiscard]] Status status() const {
    return ok() ? Status::OK() : std::get<Status>(repr_);
  }

  const T& ValueOrDie() const& {
    SKYRISE_CHECK(ok());
    return std::get<T>(repr_);
  }
  T& ValueOrDie() & {
    SKYRISE_CHECK(ok());
    return std::get<T>(repr_);
  }
  T ValueOrDie() && {
    SKYRISE_CHECK(ok());
    return std::move(std::get<T>(repr_));
  }

  /// Moves the value out without checking; only call after ok().
  T ValueUnsafe() && { return std::move(std::get<T>(repr_)); }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::variant<Status, T> repr_;
};

}  // namespace skyrise
