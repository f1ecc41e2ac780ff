/**
 * @file
 * Thread-pool sweep scheduler. Jobs of a SweepSpec are independent
 * simulations, so the pool runs them concurrently across cores. A job
 * says what to simulate (workload, config, scale, serving scenario);
 * SchedulerOptions::run says how (shards, execution policy, fidelity,
 * tracing, a scale multiplier). Each job runs as one harness::RunSpec,
 * a pure function of both, which makes parallel results bit-identical
 * to a serial run regardless of worker count or completion order.
 */

#ifndef NETCRAFTER_EXP_SCHEDULER_HH
#define NETCRAFTER_EXP_SCHEDULER_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/result_cache.hh"
#include "src/exp/sweep.hh"
#include "src/harness/runner.hh"

namespace netcrafter::exp {

/** Wall-time record of one scheduled job. */
struct JobTiming
{
    std::string name;

    /** Host seconds this job occupied a worker. */
    double seconds = 0;

    /** Host seconds from the scheduler's construction to job start —
     *  places the job on the scheduler's host timeline. */
    double startSeconds = 0;

    /** True when the result came from the cache (no simulation ran). */
    bool cacheHit = false;
};

/** Everything a sweep produced, indexed like the spec's job list. */
struct SweepResult
{
    /** One result per job, in spec order. */
    std::vector<harness::RunResult> results;

    /** One timing record per job, in spec order. */
    std::vector<JobTiming> timings;

    /** Cache hits / simulations executed while running this sweep. */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    /** End-to-end sweep wall time, seconds. */
    double wallSeconds = 0;

    /** Result of the job named @p job_name; fatal if absent. */
    const harness::RunResult &at(const std::string &job_name) const;

    /** Names resolved through the originating spec. */
    std::map<std::string, std::size_t> index;
};

/** How a Scheduler reports progress while a sweep runs. */
enum class ProgressMode
{
    /** Silent. */
    Off,

    /** One line per completed job to SchedulerOptions::log. */
    PerJob,

    /**
     * Single-line live TTY display (rate, backlog, jobs done, ETA)
     * painted by the telemetry sampler; no per-job lines. The
     * scheduler starts the Telemetry singleton if nothing else has.
     */
    Live,
};

/**
 * CPUs this process may run on: the scheduling affinity mask, which
 * unlike std::thread::hardware_concurrency() honors cgroup cpusets,
 * taskset and CI runner limits. Falls back to hardware_concurrency(),
 * floor of 1.
 */
unsigned hostCpus();

struct SchedulerOptions
{
    /**
     * Worker threads; 0 = one per usable host CPU (hostCpus()) divided
     * by run.shards, so run-level workers times intra-run shards never
     * oversubscribes the machine. An explicit value is honored as given.
     */
    unsigned workers = 0;

    /** Progress reporting; see ProgressMode. */
    ProgressMode progress = ProgressMode::Off;

    /** Progress sink; null = std::cerr. */
    std::ostream *log = nullptr;

    /**
     * How every job runs. Each job's spec is a copy of this one with
     * workload, config and serving scenario taken from the Job and
     * scale multiplied by the job's scale (run.scale is the
     * --scale / NETCRAFTER_SCALE multiplier; the cache keys on the
     * product, the scale the job simulates). run.shards 0 means 1.
     * run.fidelity is part of the cache key; run.shards and run.exec
     * are not. Jobs satisfied from the cache write no trace files.
     */
    harness::RunSpec run{};
};

class Scheduler
{
  public:
    using Options = SchedulerOptions;

    /**
     * @p cache may be null (every job simulates) or shared across many
     * sweeps so common design points run once per process.
     */
    explicit Scheduler(Options opts = {}, ResultCache *cache = nullptr);

    /** Run every job of @p spec; blocks until all complete. */
    SweepResult run(const SweepSpec &spec);

    /** Resolved worker count (>= 1). */
    unsigned workers() const { return workers_; }

    /** Engine shards each job runs with (>= 1). */
    unsigned shards() const { return shards_; }

    ResultCache *cache() const { return cache_; }

    /**
     * Every job this scheduler has run, across all sweeps, in spec
     * order. Job names are sweep-qualified ("<sweep>/<job>") so the
     * same design point stays distinguishable when several figures
     * share it.
     */
    const std::vector<std::pair<Job, harness::RunResult>> &
    history() const
    {
        return history_;
    }

    /**
     * Timing of every job across all sweeps, in execution-completion
     * order per sweep. startSeconds values share the scheduler's epoch,
     * so exporters can lay all sweeps on one host timeline.
     */
    const std::vector<JobTiming> &timingHistory() const
    {
        return timingHistory_;
    }

  private:
    harness::RunResult runJob(const Job &job, JobTiming &timing);

    Options opts_;
    unsigned workers_ = 1;
    unsigned shards_ = 1;
    ResultCache *cache_ = nullptr;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<std::pair<Job, harness::RunResult>> history_;
    std::vector<JobTiming> timingHistory_;
};

} // namespace netcrafter::exp

#endif // NETCRAFTER_EXP_SCHEDULER_HH
