/**
 * @file
 * Saturation-curve driver for the open-loop serving subsystem: sweep
 * offered load over a range for each named system configuration
 * (typically baseline vs. full NetCrafter), collect per-class latency
 * percentiles at every point, and locate each configuration's
 * saturation knee — the lowest offered load whose aggregate p99 blows
 * past the low-load p99. This is the serving-side counterpart of the
 * paper's speedup figures: it shows how much more load the NetCrafter
 * mechanisms sustain before tail latency collapses.
 */

#ifndef NETCRAFTER_EXP_SERVE_CURVE_HH
#define NETCRAFTER_EXP_SERVE_CURVE_HH

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/exp/scheduler.hh"
#include "src/exp/sweep.hh"
#include "src/harness/runner.hh"
#include "src/serve/serve_config.hh"

namespace netcrafter::exp {

/** One saturation-curve experiment. */
struct ServeCurveSpec
{
    /**
     * Scenario template: arrival process, mix, phases, seed. Its
     * offeredLoad is overwritten by each sweep point; enabled is
     * forced on.
     */
    serve::ServeConfig serve;

    /** Offered-load sweep: start..stop inclusive, stepping by step. */
    double loadStart = 2.0;
    double loadStop = 10.0;
    double loadStep = 2.0;

    /** Configurations to draw one curve each for. */
    std::vector<ConfigPoint> configs;

    /** Footprint multiplier (times SchedulerOptions::run.scale). */
    double scale = 1.0;

    /**
     * Knee threshold: the knee is the lowest load whose aggregate p99
     * exceeds kneeFactor x the p99 at the lowest load of the same
     * curve.
     */
    double kneeFactor = 3.0;
};

/** One simulated point of one curve. */
struct ServeCurvePoint
{
    std::string configLabel;
    double load = 0;
    harness::RunResult result;
};

/** The collected curves plus the knee of each. */
struct ServeCurveResult
{
    /** Points grouped by config, loads ascending within each group. */
    std::vector<ServeCurvePoint> points;

    /** Config label -> knee load; absent when no point crossed. */
    std::map<std::string, double> kneeLoad;
};

/** The offered-load values the spec sweeps. Asserts a positive start
 *  and step and a non-empty range; NC_FATAL when the number of points
 *  has no std::size_t value. */
std::vector<double> serveCurveLoads(const ServeCurveSpec &spec);

/** Build the sweep (one serve job per config x load), named
 *  "<label>/load=<load>". */
SweepSpec serveCurveSweep(const ServeCurveSpec &spec);

/** Run the whole experiment through @p scheduler. */
ServeCurveResult runServeCurve(Scheduler &scheduler,
                               const ServeCurveSpec &spec);

/** Print the per-point table and knee summary. */
void printServeCurve(const ServeCurveResult &result, std::ostream &os);

} // namespace netcrafter::exp

#endif // NETCRAFTER_EXP_SERVE_CURVE_HH
