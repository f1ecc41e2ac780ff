/**
 * @file
 * Shared helpers for the per-figure bench binaries: the Table 3 app
 * list, the paper's ablation configurations, the run spec the
 * NETCRAFTER_* environment selects, and small printing utilities. The implementations live in the experiment-orchestration
 * subsystem (src/exp/figures.hh) so declaratively defined sweeps and
 * the remaining hand-rolled binaries agree on the exact same
 * configurations; this header just adapts them to the historical
 * bench:: names.
 */

#ifndef NETCRAFTER_BENCH_BENCH_COMMON_HH
#define NETCRAFTER_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <vector>

#include "src/config/system_config.hh"
#include "src/exp/figures.hh"
#include "src/harness/env_overlay.hh"
#include "src/harness/runner.hh"
#include "src/harness/table.hh"
#include "src/obs/telemetry.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::bench {

using config::SystemConfig;
using harness::RunResult;
using harness::Table;

/** All Table 3 applications in the paper's order. */
inline std::vector<std::string>
apps()
{
    return workloads::workloadNames();
}

// The paper's ablation configurations and the speedup ratio.
using exp::fullNetcrafter;
using exp::speedup;
using exp::stitchSelective32;
using exp::stitchTrim;

/**
 * The run spec a bench main starts from: defaults overlaid with the
 * NETCRAFTER_* run environment (harness::overlayEnv). The first call
 * also starts telemetry from the NETCRAFTER_HEARTBEAT_* /
 * NETCRAFTER_WATCHDOG_* environment; later calls reuse the first
 * reading.
 */
inline const harness::RunSpec &
envSpec()
{
    static const harness::RunSpec spec = [] {
        obs::Telemetry::instance().start(
            obs::TelemetryOptions::fromEnv());
        harness::RunSpec s;
        harness::overlayEnv(s);
        return s;
    }();
    return spec;
}

/** Simulate @p app under @p cfg with @p spec's other fields. */
inline RunResult
run(const std::string &app, const SystemConfig &cfg,
    harness::RunSpec spec = envSpec())
{
    spec.workload = app;
    spec.config = cfg;
    return harness::run(spec);
}

/** CPUs usable by this process (the affinity mask). */
using exp::hostCpus;

/** Print the standard figure banner. */
inline void
banner(const std::string &fig, const std::string &caption)
{
    exp::banner(std::cout, fig, caption);
}

} // namespace netcrafter::bench

#endif // NETCRAFTER_BENCH_BENCH_COMMON_HH
