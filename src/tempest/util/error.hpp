#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace tempest::util {

/// Exception thrown by TEMPEST_REQUIRE on precondition violations.
/// Carries the failing expression and source location in its message.
class PreconditionError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// A schedule/transformation parameter that can never produce a valid
/// iteration space (e.g. a non-positive wave-front slope). Distinct from
/// PreconditionError so callers probing the schedule space (autotuners,
/// CLI parsing) can catch exactly the class of mistakes that is theirs to
/// repair.
class InvalidScheduleError : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

/// Failure taxonomy for retrying runtimes (the jobs layer, the JIT).
///
/// A *transient* failure is expected to clear on retry: a compiler OOM
/// kill, a checkpoint write hitting a briefly full disk, an injected test
/// fault. A *degrade* failure is deterministic under the current execution
/// strategy but may succeed under a slower one (a diverging fast-path run,
/// a watchdog stall) — the caller should step down its degradation ladder
/// instead of retrying in place. A *permanent* failure is a property of the
/// request itself (illegal schedule, CFL violation, mismatched checkpoint):
/// retrying it burns cycles to reproduce the same diagnostic, so it must be
/// quarantined with the diagnostic attached, never retried.
enum class FailureKind { Transient, Degrade, Permanent };

[[nodiscard]] constexpr const char* to_string(FailureKind k) {
  switch (k) {
    case FailureKind::Transient: return "transient";
    case FailureKind::Degrade: return "degrade";
    case FailureKind::Permanent: return "permanent";
  }
  return "?";
}

/// Base class for failures that are expected to clear on retry. Derives
/// from PreconditionError so the existing catch sites (the checkpoint
/// save paths) keep working: a
/// transient failure *is* still a failed precondition, it just carries the
/// extra promise that retrying is rational.
class TransientError : public PreconditionError {
 public:
  using PreconditionError::PreconditionError;
};

namespace detail {
[[noreturn]] inline void require_failed(const char* expr, const char* file,
                                        int line, const std::string& msg) {
  std::ostringstream os;
  os << "precondition failed: (" << expr << ") at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw PreconditionError(os.str());
}
}  // namespace detail

}  // namespace tempest::util

/// Check a precondition that must hold regardless of build type.
/// Unlike assert(), this is active in Release builds: the library is driven
/// by user-supplied geometry and tile parameters, and silent out-of-bounds
/// access is never acceptable in a solver.
#define TEMPEST_REQUIRE(expr)                                                \
  do {                                                                       \
    if (!(expr))                                                             \
      ::tempest::util::detail::require_failed(#expr, __FILE__, __LINE__, ""); \
  } while (0)

#define TEMPEST_REQUIRE_MSG(expr, msg)                                       \
  do {                                                                       \
    if (!(expr))                                                             \
      ::tempest::util::detail::require_failed(#expr, __FILE__, __LINE__,     \
                                              (msg));                        \
  } while (0)
