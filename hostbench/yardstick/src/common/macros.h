#pragma once

/// \file macros.h
/// Common preprocessor macros used throughout the Skyrise codebase.

#define SKYRISE_DISALLOW_COPY_AND_ASSIGN(TypeName) \
  TypeName(const TypeName&) = delete;              \
  TypeName& operator=(const TypeName&) = delete

#define SKYRISE_CONCAT_IMPL(x, y) x##y
#define SKYRISE_CONCAT(x, y) SKYRISE_CONCAT_IMPL(x, y)

/// Propagates a non-OK Status from an expression returning `Status`.
#define SKYRISE_RETURN_IF_ERROR(expr)               \
  do {                                              \
    ::skyrise::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                      \
  } while (false)

/// Evaluates an expression returning `Result<T>`; on success assigns the value
/// to `lhs`, otherwise returns the error Status from the enclosing function.
#define SKYRISE_ASSIGN_OR_RETURN_IMPL(result_name, lhs, rexpr) \
  auto result_name = (rexpr);                                  \
  if (!result_name.ok()) return result_name.status();          \
  lhs = std::move(result_name).ValueUnsafe()

#define SKYRISE_ASSIGN_OR_RETURN(lhs, rexpr) \
  SKYRISE_ASSIGN_OR_RETURN_IMPL(SKYRISE_CONCAT(_result_, __LINE__), lhs, rexpr)

/// Aborts the process when `condition` does not hold. Used for internal
/// invariants that indicate programmer error rather than runtime failures.
#define SKYRISE_CHECK(condition)                                             \
  do {                                                                       \
    if (!(condition)) {                                                      \
      ::skyrise::internal::CheckFailed(__FILE__, __LINE__, #condition);      \
    }                                                                        \
  } while (false)

#define SKYRISE_CHECK_OK(expr)                                               \
  do {                                                                       \
    ::skyrise::Status _st = (expr);                                          \
    if (!_st.ok()) {                                                         \
      ::skyrise::internal::CheckFailed(__FILE__, __LINE__,                   \
                                       _st.ToString().c_str());              \
    }                                                                        \
  } while (false)

namespace skyrise::internal {
[[noreturn]] void CheckFailed(const char* file, int line, const char* message);
}  // namespace skyrise::internal
