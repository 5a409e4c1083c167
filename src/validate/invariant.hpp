// Simulation-integrity invariants.
//
// The paper's thesis is that data-driven systems mis-decide when their
// inputs are subtly wrong. Our reproduction has the same exposure
// *internally*: a NaN sample or a clock that runs backwards corrupts
// the very statistics the Fig. 2 validation rests on. INTOX_INVARIANT
// turns those silent-failure paths into loud, diagnosable errors.
//
// A violated invariant has one outcome in every build: it throws
// InvariantError, whose what() is "file:line: invariant violated: ...".
// Nothing runs on past detected corruption. Tests catch it with
// EXPECT_THROW, ParallelRunner rethrows the first trial's exception on
// the dispatching thread, `intox validate` reports it per scenario, and
// `intox run` turns it into a failed run: it commits the flight-recorder
// dump (reason "invariant"), prints the message and exits 1.
#pragma once

#include <stdexcept>

namespace intox::validate {

/// What every violation throws; `what()` carries file:line and the
/// message.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Formats "file:line: invariant violated: <fmt...>" and throws it as an
/// InvariantError.
[[noreturn]]
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 3, 4)))
#endif
void invariant_failed(const char* file, int line, const char* fmt, ...);

}  // namespace intox::validate

/// INTOX_INVARIANT(cond, "fmt", args...) — throws InvariantError when
/// `cond` is false. The condition is evaluated exactly once; the format
/// arguments only on failure.
#define INTOX_INVARIANT(cond, ...)                                       \
  do {                                                                   \
    if (!(cond)) [[unlikely]] {                                          \
      ::intox::validate::invariant_failed(__FILE__, __LINE__,            \
                                          __VA_ARGS__);                  \
    }                                                                    \
  } while (0)
