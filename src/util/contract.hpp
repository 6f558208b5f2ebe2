// Runtime contract checks for the documented determinism/accounting
// invariants.
//
// STAR_ASSERT (util/status.hpp) guards *simulation-correctness* invariants
// and is active in every build type. STAR_CONTRACT is the audit layer one
// level up: it re-derives the REPO-WIDE invariants that the tests and the
// docs promise — strictly-increasing arrival traces, admission-queue
// conservation, token-ledger balance, residency hit/miss ledger
// consistency, reservoir-merge size conservation — at the subsystem seams
// where they are cheap to state but expensive to hold by inspection.
//
// Contracts are ON in Debug builds (and in any build configured with
// -DSTAR_AUDIT=ON) and COMPILED OUT in Release: the condition expression is
// never evaluated there (only sizeof-checked, so it must still compile),
// which keeps the serve hot path free of audit overhead while CI's Debug
// and sanitizer jobs run every check on the full suite.
//
// A fired contract throws star::ContractViolation rather than aborting:
// the violation is a library bug, but throwing keeps it testable
// (EXPECT_THROW in tests/test_contracts.cpp proves each invariant actually
// fires) and lets a serving front end fail one request's future instead of
// the whole process when the audit layer is enabled in production.
#pragma once

#include <stdexcept>
#include <string>

// CMake defines STAR_CONTRACTS_ENABLED=1 for Debug builds and for
// -DSTAR_AUDIT=ON builds of any configuration; everything else compiles
// the checks out.
#if !defined(STAR_CONTRACTS_ENABLED)
#define STAR_CONTRACTS_ENABLED 0
#endif

namespace star {

/// Thrown by a failed STAR_CONTRACT: an internal invariant the repo
/// documents (and tests) was violated at runtime. Always a bug — never a
/// caller-input error (those throw InvalidArgument via require()).
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

/// Whether STAR_CONTRACT checks are live in this build. Lets tests assert
/// both sides: Debug/audit builds prove every contract fires; Release
/// builds prove the same violating states pass through unchecked (the
/// checks are compiled out, condition unevaluated).
[[nodiscard]] constexpr bool contracts_enabled() {
  return STAR_CONTRACTS_ENABLED != 0;
}

/// Which sanitizer this build was instrumented with ("none" when plain) —
/// provenance for benchmark records (perfbench's fingerprint line), set
/// from the STAR_SANITIZE CMake option.
[[nodiscard]] const char* sanitizer_name();

namespace detail {
[[noreturn]] void contract_fail(const char* expr, const char* file, int line,
                                const std::string& msg);
}  // namespace detail

}  // namespace star

#if STAR_CONTRACTS_ENABLED
#define STAR_CONTRACT(expr, msg)                                          \
  do {                                                                    \
    if (!(expr)) {                                                        \
      ::star::detail::contract_fail(#expr, __FILE__, __LINE__, (msg));    \
    }                                                                     \
  } while (false)
#else
// Compiled out: the condition must still PARSE (sizeof in an unevaluated
// context), but neither it nor the message is ever evaluated — a contract
// with side effects would be a bug, and test_contracts.cpp checks this.
#define STAR_CONTRACT(expr, msg) \
  do {                           \
    (void)sizeof(!(expr));       \
  } while (false)
#endif
