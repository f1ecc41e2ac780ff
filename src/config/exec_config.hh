/**
 * @file
 * Execution-policy knobs: how many host threads drive the shard
 * engines and whether they work-steal across the quantum barrier.
 * Pure execution details — no knob here can change a simulation
 * result, which is why they live outside SystemConfig and its digest.
 */

#ifndef NETCRAFTER_CONFIG_EXEC_CONFIG_HH
#define NETCRAFTER_CONFIG_EXEC_CONFIG_HH

#include <cstdint>

#include "src/sim/sharded_engine.hh"

namespace netcrafter::config {

/**
 * Parse one NETCRAFTER_THREADS value: 0 (one thread per shard) or a
 * positive executor-thread count (sanely capped at 65536; the engine
 * clamps to the shard count). Negative numbers and garbage are fatal —
 * silently running one thread on a typo would make every speedup
 * number lie.
 */
unsigned parseThreadsEnv(const char *text);

/**
 * Parse one NETCRAFTER_STEAL value: 0/1, or the words off/on,
 * false/true. Anything else is fatal.
 */
bool parseStealEnv(const char *text);

/**
 * Parse one NETCRAFTER_STEAL_MIN_BACKLOG value: a positive event-count
 * floor below which a shard's unit is not worth stealing. Zero,
 * negatives, and garbage are fatal.
 */
std::uint32_t parseStealMinBacklogEnv(const char *text);

/**
 * Build an ExecPolicy from the NETCRAFTER_THREADS, NETCRAFTER_STEAL,
 * and NETCRAFTER_STEAL_MIN_BACKLOG environment variables, starting
 * from the defaults (threads = one per shard, stealing off). Unset
 * variables leave the corresponding field untouched; invalid values
 * are fatal.
 */
sim::ExecPolicy execPolicyFromEnv();

} // namespace netcrafter::config

#endif // NETCRAFTER_CONFIG_EXEC_CONFIG_HH
