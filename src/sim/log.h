/**
 * @file
 * gem5-style status and error reporting for the K2 simulator.
 *
 * panic()  -- an internal invariant was violated (a simulator bug);
 *             aborts the process.
 * fatal()  -- the simulation cannot continue because of a user error
 *             (bad configuration, invalid arguments); throws
 *             FatalError so tests can assert on misconfiguration.
 *
 * Everything else a run reports goes through the span tracer
 * (sim/trace.h) or the metrics registry.
 */

#ifndef K2_SIM_LOG_H
#define K2_SIM_LOG_H

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace k2 {
namespace sim {

/** Thrown by fatal() for user-caused misconfiguration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * Report an internal simulator bug and abort.
 *
 * @param fmt printf-style format string.
 */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/**
 * Report a user error and throw FatalError.
 */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** printf-style formatting into a std::string. */
std::string strPrintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

#define K2_PANIC(...) \
    ::k2::sim::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define K2_FATAL(...) \
    ::k2::sim::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an internal invariant; panics with the condition text. */
#define K2_ASSERT(cond, ...)                                           \
    do {                                                               \
        if (!(cond)) {                                                 \
            ::k2::sim::panicImpl(__FILE__, __LINE__,                   \
                                 "assertion failed: %s", #cond);       \
        }                                                              \
    } while (0)

} // namespace sim
} // namespace k2

#endif // K2_SIM_LOG_H
