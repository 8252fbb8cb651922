/**
 * @file
 * Error reporting for the LEO library.
 *
 * Follows the gem5 panic()/fatal() discipline: panic() flags an
 * internal invariant violation (a library bug), fatal() flags a
 * condition caused by the caller (bad arguments, unusable inputs).
 * Unlike gem5 we throw typed exceptions instead of aborting so that
 * library users and the test suite can observe and recover from
 * failures.
 */

#ifndef LEO_LINALG_ERROR_HH
#define LEO_LINALG_ERROR_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace leo
{

/** Root of the LEO exception hierarchy. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &msg) : std::runtime_error(msg) {}
};

/** Raised by panic(): an internal invariant was violated. */
class PanicError : public Error
{
  public:
    explicit PanicError(const std::string &msg) : Error(msg) {}
};

/** Raised by fatal(): the caller supplied unusable input. */
class FatalError : public Error
{
  public:
    explicit FatalError(const std::string &msg) : Error(msg) {}
};

/**
 * Report an internal library bug.
 *
 * @param msg Description of the violated invariant.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    throw PanicError("panic: " + msg); // leo-lint: allow(nothrow-reachability) assert-style invariant escape; fit paths guard it
}

/**
 * Report a usage error by the caller.
 *
 * @param msg Description of the bad input.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    throw FatalError("fatal: " + msg); // leo-lint: allow(nothrow-reachability) precondition escape; boundaries validate first
}

/**
 * Check a caller-facing precondition; calls fatal() on failure.
 *
 * @param cond Condition that must hold.
 * @param msg  Message used when the condition fails.
 */
inline void
require(bool cond, const std::string &msg)
{
    if (!cond)
        fatal(msg);
}

/**
 * Literal-message overload of require(). String literals bind here
 * instead of materializing a std::string argument, so checks on the
 * success path never touch the heap — which is what lets the EM hot
 * loop run allocation-free while staying fully checked.
 */
inline void
require(bool cond, const char *msg)
{
    if (!cond)
        fatal(msg);
}

/**
 * Check an internal invariant; calls panic() on failure. The message
 * is a literal, so a check that holds never touches the heap (see
 * require()).
 *
 * @param cond Condition that must hold.
 * @param msg  Message used when the condition fails.
 */
inline void
invariant(bool cond, const char *msg)
{
    if (!cond)
        panic(msg);
}

} // namespace leo

#endif // LEO_LINALG_ERROR_HH
