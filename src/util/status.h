// Error handling helpers.
//
// Following the C++ Core Guidelines (E.2, E.3) we use exceptions for error
// reporting.  `AspenError` is the library's root exception; ASPEN_CHECK /
// ASPEN_REQUIRE provide compact precondition and invariant enforcement with
// formatted messages.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace aspen {

/// Root exception for all errors raised by this library.
class AspenError : public std::runtime_error {
 public:
  explicit AspenError(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when requested tree parameters admit no valid Aspen tree
/// (e.g. a non-integer pod size m_i — Listing 1 lines 19-20).
class InvalidTreeError : public AspenError {
 public:
  using AspenError::AspenError;
};

/// Raised when a caller violates a documented precondition.
class PreconditionError : public AspenError {
 public:
  using AspenError::AspenError;
};

namespace detail {

template <typename Err, typename... Parts>
[[noreturn]] void throw_formatted(const char* expr, const char* file, int line,
                                  Parts&&... parts) {
  std::ostringstream os;
  os << file << ":" << line << ": check failed: " << expr;
  if constexpr (sizeof...(parts) > 0) {
    os << " — ";
    (os << ... << std::forward<Parts>(parts));
  }
  throw Err(os.str());
}

}  // namespace detail

/// Internal-invariant check: failure indicates a library bug.
#define ASPEN_CHECK(cond, ...)                                           \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::aspen::detail::throw_formatted<::aspen::AspenError>(             \
          #cond, __FILE__, __LINE__ __VA_OPT__(, ) __VA_ARGS__);         \
    }                                                                    \
  } while (false)

/// Precondition check: failure indicates caller error.
#define ASPEN_REQUIRE(cond, ...)                                         \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::aspen::detail::throw_formatted<::aspen::PreconditionError>(      \
          #cond, __FILE__, __LINE__ __VA_OPT__(, ) __VA_ARGS__);         \
    }                                                                    \
  } while (false)

/// True for a probability: within [0, 1], so NaN and infinities fail.
[[nodiscard]] inline bool is_probability(double p) {
  return p >= 0.0 && p <= 1.0;
}

}  // namespace aspen
