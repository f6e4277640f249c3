/**
 * @file
 * Error-reporting helpers following the gem5 convention.
 *
 * panic()  — an internal simulator bug: something that should never
 *            happen regardless of user input. Aborts.
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments). Exits with code 1.
 * warn()   — functionality is approximated; results may be affected.
 */

#ifndef HPMP_BASE_LOGGING_H
#define HPMP_BASE_LOGGING_H

#include <string>

namespace hpmp
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);

/** Format helper: tiny printf-style formatting into std::string. */
std::string logFormat(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace hpmp

#define panic(...) \
    ::hpmp::panicImpl(__FILE__, __LINE__, ::hpmp::logFormat(__VA_ARGS__))
#define fatal(...) \
    ::hpmp::fatalImpl(__FILE__, __LINE__, ::hpmp::logFormat(__VA_ARGS__))
#define warn(...) ::hpmp::warnImpl(::hpmp::logFormat(__VA_ARGS__))

/** panic() unless the invariant holds. */
#define panic_if(cond, ...)                      \
    do {                                         \
        if (cond)                                \
            panic(__VA_ARGS__);                  \
    } while (0)

#define fatal_if(cond, ...)                      \
    do {                                         \
        if (cond)                                \
            fatal(__VA_ARGS__);                  \
    } while (0)

#endif // HPMP_BASE_LOGGING_H
