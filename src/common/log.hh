/**
 * @file
 * Minimal status/error reporting in the spirit of gem5's logging.hh:
 * panic() for internal invariant violations, fatal() for user/config
 * errors, warn()/inform() for status.
 */

#ifndef TMCC_COMMON_LOG_HH
#define TMCC_COMMON_LOG_HH

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace tmcc
{

namespace log_detail
{

[[noreturn]] inline void
die(const char *kind, const std::string &msg, bool abortProcess)
{
    std::cerr << kind << ": " << msg << std::endl;
    if (abortProcess)
        std::abort();
    std::exit(1);
}

} // namespace log_detail

/** Internal simulator bug: abort (dump core / enter debugger). */
[[noreturn]] inline void
panic(const std::string &msg)
{
    log_detail::die("panic", msg, true);
}

/** Unrecoverable user/configuration error: clean exit(1). */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    log_detail::die("fatal", msg, false);
}

/** Non-fatal warning about approximated or suspicious behaviour. */
inline void
warn(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

/** Status message with no connotation of incorrect behaviour. */
inline void
inform(const std::string &msg)
{
    std::cout << "info: " << msg << std::endl;
}

/** panic() unless `cond` holds. */
inline void
panicIf(bool cond, const std::string &msg)
{
    if (cond)
        panic(msg);
}

/** fatal() unless `cond` holds. */
inline void
fatalIf(bool cond, const std::string &msg)
{
    if (cond)
        fatal(msg);
}

// Literal-message overloads: the std::string is built only when the
// check fires, so a check on a hot path costs one branch, not a heap
// allocation per call.
inline void
panicIf(bool cond, const char *msg)
{
    if (cond)
        panic(msg);
}

inline void
fatalIf(bool cond, const char *msg)
{
    if (cond)
        fatal(msg);
}

} // namespace tmcc

#endif // TMCC_COMMON_LOG_HH
