/**
 * @file
 * The library run path reads no run argument from the environment:
 * with every NETCRAFTER_* run, tracing, serving and telemetry variable
 * set to garbage, harness::run (workload and serving specs) and a
 * default-options Scheduler sweep still complete, and measure exactly
 * what they measure in a clean environment. Only CLI entry points
 * consult those variables, through harness::overlayEnv.
 */

#include <gtest/gtest.h>

#include "src/config/system_config.hh"
#include "src/exp/scheduler.hh"
#include "src/exp/sweep.hh"
#include "src/harness/runner.hh"
#include "tests/harness/scoped_env.hh"

namespace netcrafter {
namespace {

/** Every variable set to a value its parser rejects. */
constexpr std::pair<const char *, const char *> kInvalidEnvironment[] = {
    {"NETCRAFTER_SCALE", "huge"},
    {"NETCRAFTER_SHARDS", "0"},
    {"NETCRAFTER_JOBS", "-1"},
    {"NETCRAFTER_THREADS", "many"},
    {"NETCRAFTER_STEAL", "maybe"},
    {"NETCRAFTER_STEAL_MIN_BACKLOG", "0"},
    {"NETCRAFTER_FIDELITY", "warp"},
    {"NETCRAFTER_TRACE_OUT", "/nonexistent/\x01/traces"},
    {"NETCRAFTER_TRACE_LEVEL", "loud"},
    {"NETCRAFTER_SAMPLE_INTERVAL", "often"},
    {"NETCRAFTER_SERVE_LOAD", "-4"},
    {"NETCRAFTER_SERVE_ARRIVAL", "gaussian"},
    {"NETCRAFTER_SERVE_MIX", "1:2"},
    {"NETCRAFTER_SERVE_WARMUP", "0"},
    {"NETCRAFTER_SERVE_MEASURE", "5k"},
    {"NETCRAFTER_SERVE_SEED", "-7"},
    {"NETCRAFTER_HEARTBEAT_OUT", "/nonexistent/\x01/heartbeat"},
    {"NETCRAFTER_HEARTBEAT_INTERVAL_MS", "0"},
    {"NETCRAFTER_HEARTBEAT_TTY", "sometimes"},
    {"NETCRAFTER_WATCHDOG_SECS", "-1"},
    {"NETCRAFTER_WATCHDOG_DUMP", "/nonexistent/\x01/dump"},
    {"NETCRAFTER_WATCHDOG_ABORT", "perhaps"},
};

config::SystemConfig
tinyConfig()
{
    config::SystemConfig cfg = config::baselineConfig();
    cfg.cusPerGpu = 4;
    cfg.maxWavesPerCu = 2;
    return cfg;
}

harness::RunSpec
workloadSpec()
{
    harness::RunSpec spec;
    spec.workload = "GUPS";
    spec.config = tinyConfig();
    spec.scale = 0.1;
    return spec;
}

harness::RunSpec
serveSpec()
{
    harness::RunSpec spec;
    spec.config = tinyConfig();
    spec.scale = 0.05;
    spec.serve.enabled = true;
    spec.serve.offeredLoad = 2.0;
    spec.serve.seed = 3;
    spec.serve.warmupTicks = 500;
    spec.serve.measureTicks = 2'000;
    return spec;
}

harness::RunResult
sweepOneJob()
{
    exp::SweepSpec spec("isolation");
    spec.add("GUPS", "GUPS", tinyConfig(), 0.1);
    exp::Scheduler scheduler;
    return scheduler.run(spec).at("GUPS");
}

TEST(EnvIsolation, LibraryRunPathIgnoresTheEnvironment)
{
    harness::RunResult clean_run, clean_serve, clean_sweep;
    {
        test::ScopedEnv env;
        for (const auto &[var, value] : kInvalidEnvironment)
            env.unset(var);
        clean_run = harness::run(workloadSpec());
        clean_serve = harness::run(serveSpec());
        clean_sweep = sweepOneJob();
    }

    test::ScopedEnv env;
    for (const auto &[var, value] : kInvalidEnvironment)
        env.set(var, value);
    const harness::RunResult run = harness::run(workloadSpec());
    const harness::RunResult served = harness::run(serveSpec());
    const harness::RunResult swept = sweepOneJob();

    EXPECT_TRUE(harness::sameMeasurement(clean_run, run));
    EXPECT_TRUE(harness::sameMeasurement(clean_serve, served));
    EXPECT_TRUE(harness::sameMeasurement(clean_sweep, swept));
    EXPECT_TRUE(harness::sameMeasurement(clean_run, swept));
    EXPECT_GT(served.serveCompleted, 0u);
    // Nothing was traced and no run went parallel behind our back.
    EXPECT_EQ(run.traceRecords, 0u);
    EXPECT_EQ(run.shards, 1u);
    EXPECT_EQ(swept.fidelity, flow::Fidelity::Cycle);
}

} // namespace
} // namespace netcrafter
