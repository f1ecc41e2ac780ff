/**
 * @file
 * The one place that reads NETCRAFTER_* run variables. The library run
 * path (harness::run, exp::Scheduler, MultiGpuSystem) takes every run
 * argument from its RunSpec or SchedulerOptions; only CLI entry points
 * (netcrafter-sweep, validate-fidelity, the quickstart example) call
 * overlayEnv() to fill a spec from the environment and their flags.
 * Precedence is flag over environment over default, and every value is
 * validated: garbage is fatal and names the flag or variable it came
 * from.
 *
 * The process-wide diagnostic switches (NETCRAFTER_QUIET,
 * NETCRAFTER_TEARDOWN_CENSUS, NETCRAFTER_PROFILE) and the telemetry
 * variables (obs::TelemetryOptions::fromEnv) are not run arguments and
 * stay with their subsystems.
 */

#ifndef NETCRAFTER_HARNESS_ENV_OVERLAY_HH
#define NETCRAFTER_HARNESS_ENV_OVERLAY_HH

#include <cstdint>
#include <map>
#include <string>

#include "src/harness/runner.hh"
#include "src/sim/types.hh"

namespace netcrafter::harness {

/**
 * Command-line values of NETCRAFTER_* run variables. A CLI records each
 * flag under the variable it overrides (--shards N under
 * NETCRAFTER_SHARDS); overlayEnv() reads a variable from here first and
 * from the environment second.
 */
class RunFlags
{
  public:
    /**
     * If argv[@p i] is one of the shared run flags (--jobs, --shards,
     * --fidelity, --trace-out, --trace-level, --sample-interval),
     * record its value under its variable, advance @p i past it and
     * return true. A flag without a value is fatal.
     */
    bool consume(int argc, char **argv, int &i);

    /** Record @p value, given as @p flag, for variable @p var. */
    void set(const char *var, const char *flag, std::string value);

    /**
     * The text of @p var: its flag value, else its environment value,
     * else null. @p source receives the flag or variable name for error
     * messages.
     */
    const char *lookup(const char *var, const char **source) const;

  private:
    struct Value
    {
        const char *flag;
        std::string text;
    };
    std::map<std::string, Value> values_;
};

/**
 * Overlay every NETCRAFTER_* run variable (and its flag in @p flags)
 * onto @p spec:
 *  - _SCALE multiplies spec.scale;
 *  - _SHARDS, _THREADS, _STEAL, _STEAL_MIN_BACKLOG and _FIDELITY set
 *    shards, exec and fidelity;
 *  - _TRACE_OUT, _TRACE_LEVEL and _SAMPLE_INTERVAL set trace; an output
 *    directory or a sampling interval without a level implies the
 *    packet tier;
 *  - _SERVE_LOAD, _ARRIVAL, _MIX, _WARMUP, _MEASURE and _SEED set the
 *    serving scenario, but never serve.enabled: the caller decides
 *    whether serving runs at all;
 *  - _JOBS (sweep worker threads, 0 = all cores) lands in @p jobs when
 *    it is non-null.
 * Unset variables leave their fields untouched.
 */
void overlayEnv(RunSpec &spec, const RunFlags &flags = {},
                unsigned *jobs = nullptr);

// Validated parsers, one per variable. @p what names the source in the
// fatal message; it defaults to the variable.

/** A positive finite problem-size multiplier. */
double parseScaleEnv(const char *text,
                     const char *what = "NETCRAFTER_SCALE");

/**
 * A positive shard count (sanely capped at 65536). Zero, negative
 * numbers and garbage are fatal: silently running serial on a typo
 * would make every "parallel" benchmark lie.
 */
unsigned parseShardsEnv(const char *text,
                        const char *what = "NETCRAFTER_SHARDS");

/** Sweep worker threads: 0 (all host CPUs) or a positive count
 *  (capped at 65536). */
unsigned parseJobsEnv(const char *text,
                      const char *what = "NETCRAFTER_JOBS");

/**
 * 0 (one executor thread per shard) or a positive executor-thread
 * count (capped at 65536; the engine clamps to the shard count).
 */
unsigned parseThreadsEnv(const char *text,
                         const char *what = "NETCRAFTER_THREADS");

/** 0/1, or the words off/on, false/true. */
bool parseStealEnv(const char *text, const char *what = "NETCRAFTER_STEAL");

/** A positive event-count floor below which a shard's unit is not
 *  worth stealing. */
std::uint32_t
parseStealMinBacklogEnv(const char *text,
                        const char *what = "NETCRAFTER_STEAL_MIN_BACKLOG");

/** A non-negative interval-sampler period in sim ticks (0 = off). */
Tick parseSampleIntervalEnv(
    const char *text, const char *what = "NETCRAFTER_SAMPLE_INTERVAL");

/** Offered load in requests per kilocycle, a positive finite number. */
double parseServeLoadEnv(const char *text,
                         const char *what = "NETCRAFTER_SERVE_LOAD");

/** A positive tick count (NETCRAFTER_SERVE_WARMUP / _MEASURE). */
Tick parseServeTicksEnv(const char *text, const char *what);

/** A non-negative serving seed. */
std::uint64_t parseServeSeedEnv(const char *text,
                                const char *what = "NETCRAFTER_SERVE_SEED");

} // namespace netcrafter::harness

#endif // NETCRAFTER_HARNESS_ENV_OVERLAY_HH
