#include "src/config/exec_config.hh"

#include <cstdlib>
#include <cstring>

#include "src/sim/logging.hh"

namespace netcrafter::config {

unsigned
parseThreadsEnv(const char *text)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    // strtol saturates overflow at LONG_MAX, so the upper check also
    // rejects absurdly long digit strings. 0 is legal: one thread per
    // shard, the default mapping.
    if (end == text || *end != '\0' || v < 0 || v > (1L << 16)) {
        NC_FATAL("NETCRAFTER_THREADS must be 0 (one per shard) or a "
                 "positive executor-thread count, got '", text, "'");
    }
    return static_cast<unsigned>(v);
}

bool
parseStealEnv(const char *text)
{
    if (std::strcmp(text, "1") == 0 || std::strcmp(text, "on") == 0 ||
        std::strcmp(text, "true") == 0)
        return true;
    if (std::strcmp(text, "0") == 0 || std::strcmp(text, "off") == 0 ||
        std::strcmp(text, "false") == 0)
        return false;
    NC_FATAL("NETCRAFTER_STEAL must be one of 0/1/on/off/true/false, "
             "got '", text, "'");
}

std::uint32_t
parseStealMinBacklogEnv(const char *text)
{
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 1 || v > (1L << 30)) {
        NC_FATAL("NETCRAFTER_STEAL_MIN_BACKLOG must be a positive "
                 "event-count floor, got '", text, "'");
    }
    return static_cast<std::uint32_t>(v);
}

sim::ExecPolicy
execPolicyFromEnv()
{
    sim::ExecPolicy exec;
    if (const char *env = std::getenv("NETCRAFTER_THREADS"))
        exec.threads = parseThreadsEnv(env);
    if (const char *env = std::getenv("NETCRAFTER_STEAL"))
        exec.steal = parseStealEnv(env);
    if (const char *env = std::getenv("NETCRAFTER_STEAL_MIN_BACKLOG"))
        exec.stealMinBacklog = parseStealMinBacklogEnv(env);
    return exec;
}

} // namespace netcrafter::config
