/**
 * @file
 * Error-reporting helpers following the gem5 idiom: panic() for simulator
 * bugs (aborts), fatal() for user/configuration errors (exit(1)), warn()
 * and inform() for non-fatal diagnostics.
 */

#ifndef NETCRAFTER_SIM_LOGGING_HH
#define NETCRAFTER_SIM_LOGGING_HH

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>

namespace netcrafter {

namespace detail {

/** Concatenate a parameter pack into a string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Bump the process-wide count of warnings muted by NC_WARN_ONCE. */
void noteSuppressedWarn();

} // namespace detail

/** True when NETCRAFTER_QUIET is set; silences warn()/inform(). */
bool quietLogging();

/**
 * Total warnings swallowed by NC_WARN_ONCE call sites after their first
 * occurrence. Lets tests and end-of-run summaries surface how much spam
 * was suppressed.
 */
std::uint64_t suppressedWarnCount();

} // namespace netcrafter

/**
 * Report an internal simulator bug and abort. Use for conditions that can
 * never happen regardless of user input.
 */
#define NC_PANIC(...)                                                        \
    ::netcrafter::detail::panicImpl(__FILE__, __LINE__,                      \
                                    ::netcrafter::detail::concat(__VA_ARGS__))

/**
 * Report a user/configuration error and exit(1). Use for conditions caused
 * by invalid parameters rather than simulator bugs.
 */
#define NC_FATAL(...)                                                        \
    ::netcrafter::detail::fatalImpl(__FILE__, __LINE__,                      \
                                    ::netcrafter::detail::concat(__VA_ARGS__))

/** Non-fatal warning about questionable behaviour. */
#define NC_WARN(...)                                                         \
    ::netcrafter::detail::warnImpl(::netcrafter::detail::concat(__VA_ARGS__))

/**
 * Rate-limited warning for per-packet-scale call sites: prints on the
 * first hit only, counting later hits into suppressedWarnCount() instead
 * of flooding stderr. Each call site gets its own counter; the counter is
 * process-wide, so a site stays muted across runs in the same process.
 */
#define NC_WARN_ONCE(...)                                                    \
    do {                                                                     \
        static std::atomic<std::uint64_t> nc_warn_once_hits{0};              \
        if (nc_warn_once_hits.fetch_add(1, std::memory_order_relaxed) ==     \
            0) {                                                             \
            NC_WARN(__VA_ARGS__,                                             \
                    " [further repeats of this warning suppressed]");        \
        } else {                                                             \
            ::netcrafter::detail::noteSuppressedWarn();                      \
        }                                                                    \
    } while (0)

/** Informative status message. */
#define NC_INFORM(...)                                                       \
    ::netcrafter::detail::informImpl(                                        \
        ::netcrafter::detail::concat(__VA_ARGS__))

/** Panic unless @p cond holds. */
#define NC_ASSERT(cond, ...)                                                 \
    do {                                                                     \
        if (!(cond)) {                                                       \
            NC_PANIC("assertion failed: " #cond " ", __VA_ARGS__);           \
        }                                                                    \
    } while (0)

#endif // NETCRAFTER_SIM_LOGGING_HH
