/**
 * @file
 * Declarative experiment sweeps: a SweepSpec names every
 * (workload, configuration, scale) design point of an experiment up
 * front, so a scheduler can run the points in any order (or in
 * parallel, or from a cache) and the figure code can look results up by
 * name afterwards.
 */

#ifndef NETCRAFTER_EXP_SWEEP_HH
#define NETCRAFTER_EXP_SWEEP_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/config/system_config.hh"
#include "src/serve/serve_config.hh"

namespace netcrafter::exp {

/** One design point: simulate @p workload under @p config at @p scale. */
struct Job
{
    /** Unique name within the sweep, e.g. "ideal/GUPS". */
    std::string name;

    /**
     * Table 3 abbreviation or "GEMM" for closed-loop jobs; ignored
     * (and conventionally "serve-<arrival>") when serve.enabled.
     */
    std::string workload;

    config::SystemConfig config;

    /** Problem-size multiplier (times SchedulerOptions::run.scale). */
    double scale = 1.0;

    /**
     * Open-loop serving scenario. When enabled the job serves it
     * instead of running @p workload, and the serve digest becomes
     * part of the job's cache identity.
     */
    serve::ServeConfig serve;
};

/** A named configuration used when building grids. */
struct ConfigPoint
{
    std::string label;
    config::SystemConfig config;
};

/** An ordered collection of uniquely named jobs. */
class SweepSpec
{
  public:
    explicit SweepSpec(std::string name) : name_(std::move(name)) {}

    /** Append one job; fatal if @p job_name is already taken. */
    Job &add(std::string job_name, std::string workload,
             config::SystemConfig cfg, double scale = 1.0);

    /**
     * Cross product: every workload under every configuration, named
     * "<config label>/<workload>".
     */
    void addGrid(const std::vector<std::string> &workload_names,
                 const std::vector<ConfigPoint> &configs,
                 double scale = 1.0);

    const std::string &name() const { return name_; }
    const std::vector<Job> &jobs() const { return jobs_; }
    std::size_t size() const { return jobs_.size(); }

    /** Index of the job named @p job_name; fatal if absent. */
    std::size_t indexOf(const std::string &job_name) const;

    bool contains(const std::string &job_name) const
    {
        return by_name_.count(job_name) != 0;
    }

  private:
    std::string name_;
    std::vector<Job> jobs_;
    std::map<std::string, std::size_t> by_name_;
};

} // namespace netcrafter::exp

#endif // NETCRAFTER_EXP_SWEEP_HH
