/**
 * @file
 * Experiment harness: runs one (workload, configuration) pair and
 * extracts every statistic the paper's figures need into a flat result
 * record, so each figure just sweeps configs and prints rows.
 */

#ifndef NETCRAFTER_HARNESS_RUNNER_HH
#define NETCRAFTER_HARNESS_RUNNER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/config/system_config.hh"
#include "src/flow/fidelity.hh"
#include "src/obs/trace.hh"
#include "src/serve/serve_config.hh"
#include "src/sim/sharded_engine.hh"
#include "src/sim/types.hh"

namespace netcrafter::harness {

/**
 * Per-class latency summary of an open-loop serving run (all zero for
 * closed-loop runs).
 */
using ServeClassResult = serve::ClassLatency;

/** Latency summaries: read, write, ptw, then the aggregate. */
using ServeClasses = std::array<ServeClassResult, 4>;

/** Fractions of inter-cluster reads by bytes needed (Figure 7). */
using BytesNeededFrac = std::array<double, 5>;

/**
 * Which side of sameMeasurement() a metric falls on. A measurement is a
 * pure function of (workload, config, scale, serving scenario,
 * fidelity); a diagnostic depends on how the host ran it (shards,
 * threads, stealing, tracing, wall clock, thread-local pools).
 */
enum class MetricKind
{
    Measurement,
    Diagnostic,
};

/**
 * Everything measured in one simulation run. The members after
 * workload, their meaning and their MetricKind come from one table,
 * src/harness/run_metrics.def.
 */
struct RunResult
{
    std::string workload;

#define NC_METRIC(type, member, column, kind) type member{};
#include "src/harness/run_metrics.def"
#undef NC_METRIC
};

namespace detail {

template <typename T, typename F>
void
visitMetric(const std::string &column, const T &value, F &f)
{
    f(column, value);
}

template <typename F>
void
visitMetric(const std::string &column, const BytesNeededFrac &fracs, F &f)
{
    static constexpr const char *kBuckets[] = {"le16", "le32", "le48",
                                               "lt64", "64"};
    for (std::size_t i = 0; i < fracs.size(); ++i)
        f(column + "_" + kBuckets[i], fracs[i]);
}

template <typename F>
void
visitMetric(const std::string &column, const ServeClasses &classes, F &f)
{
    static constexpr const char *kClasses[] = {"read", "write", "ptw",
                                               "all"};
    for (std::size_t c = 0; c < classes.size(); ++c) {
        const std::string prefix = column + "_" + kClasses[c] + "_";
        const ServeClassResult &lat = classes[c];
        f(prefix + "measured", lat.measured);
        f(prefix + "mean", lat.meanLatency);
        f(prefix + "p50", lat.p50);
        f(prefix + "p95", lat.p95);
        f(prefix + "p99", lat.p99);
        f(prefix + "p999", lat.p999);
    }
}

} // namespace detail

/**
 * Call @p f(column, value) for every metric column of @p r in table
 * order, an array member once per element. @p value is a Tick or other
 * unsigned integer, a double, or the flow::Fidelity.
 */
template <typename F>
void
forEachMetric(const RunResult &r, F &&f)
{
#define NC_METRIC(type, member, column, kind)                           \
    detail::visitMetric(column, r.member, f);
#include "src/harness/run_metrics.def"
#undef NC_METRIC
}

/**
 * Everything one simulation depends on. A run is a pure function of its
 * spec: the library reads no run argument from the environment (CLI
 * entry points fill specs from NETCRAFTER_* variables and flags through
 * harness::overlayEnv, see env_overlay.hh).
 */
struct RunSpec
{
    /** Table 3 abbreviation or "GEMM"; ignored when serve.enabled. */
    std::string workload;

    /**
     * Open-loop serving scenario. When enabled the run serves it
     * instead of running @p workload, fills the serve_* result fields,
     * and names the result "serve-<arrival>".
     */
    serve::ServeConfig serve;

    config::SystemConfig config;

    /** Problem-size multiplier (per-wavefront instruction counts, or
     *  the serving footprint). */
    double scale = 1.0;

    /**
     * Engine shards (see sim::ShardedEngine); more than the cluster
     * count is fatal. Every measured field of the result is identical
     * for every shard count - only the diagnostics differ.
     */
    unsigned shards = 1;

    /** Executor threads and work stealing: an execution detail that
     *  never changes a measurement. */
    sim::ExecPolicy exec{};

    /**
     * Execution fidelity. Run metadata, not a config field: flow and
     * hybrid runs approximate the cycle measurement (the validation
     * harness bounds the error), so results from different fidelities
     * must never be conflated - exp::ResultCache keys on it. Non-cycle
     * fidelities require shards == 1.
     */
    flow::Fidelity fidelity = flow::Fidelity::Cycle;

    /**
     * Tracing, disabled by default. When it names an output directory
     * the run writes `<outDir>/<workload>-<digest>-s<scale>-n<shards>.
     * {trace.json,host.trace.json,timeseries.csv,stats.json}`: sim-time
     * and host-time Chrome traces, the interval time-series, and the
     * full statistics registry with the folded packet-lifecycle
     * distributions.
     */
    obs::TraceOptions trace{};
};

/** Simulate @p spec and extract every statistic the figures need. */
RunResult run(const RunSpec &spec);

/** Geometric mean of a sequence of positive ratios. */
double geomean(const std::vector<double> &xs);

/**
 * True when @p a and @p b name the same workload and agree on every
 * MetricKind::Measurement metric. Exact comparison: the simulator is
 * deterministic, so equal inputs must produce bit-equal outputs; in
 * particular a serial and a sharded run of the same (workload, config)
 * must compare equal.
 */
bool sameMeasurement(const RunResult &a, const RunResult &b);

} // namespace netcrafter::harness

#endif // NETCRAFTER_HARNESS_RUNNER_HH
