// Lightweight error handling for the STAR library.
//
// The simulator is a library first: errors that a caller can provoke with
// bad arguments (shape mismatches, out-of-range formats) throw
// star::InvalidArgument; internal invariant violations abort via
// STAR_ASSERT so that a broken simulation never silently produces numbers.
#pragma once

#include <concepts>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace star {

/// Thrown when a caller-visible precondition is violated
/// (bad shapes, out-of-range configuration, unsupported combination).
class InvalidArgument : public std::invalid_argument {
 public:
  explicit InvalidArgument(const std::string& what) : std::invalid_argument(what) {}
};

/// Thrown when a simulation reaches a state it cannot model
/// (e.g. a value outside the representable crossbar range with
/// saturation disabled).
class SimulationError : public std::runtime_error {
 public:
  explicit SimulationError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& msg);
/// Out-of-line throw of require(), so the inline check stays one branch.
[[noreturn]] void require_fail(std::string_view message);
}  // namespace detail

/// Require a caller-visible precondition; throws InvalidArgument.
inline void require(bool cond, std::string_view message) {
  if (!cond) [[unlikely]] {
    detail::require_fail(message);
  }
}

/// Lazy form for a composed message: `message()` builds it only when the
/// check fails, so a passing check never allocates.
///   require(n == rows, [&] { return expected_got("rows", rows, n); });
template <std::invocable F>
inline void require(bool cond, F&& message) {
  if (!cond) [[unlikely]] {
    detail::require_fail(std::forward<F>(message)());
  }
}

/// Build a message like "rows: expected 128, got 64".
std::string expected_got(std::string_view what, long long expected, long long got);

}  // namespace star

/// Internal invariant check. Active in all build types: a crossbar simulator
/// that silently produces garbage is worse than one that stops.
#define STAR_ASSERT(expr, msg)                                               \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::star::detail::assert_fail(#expr, __FILE__, __LINE__, (msg));         \
    }                                                                        \
  } while (false)
